"""Single-WT model: linearization, analytic mode, nonlinear simulation.

Oracles: central finite differences of the nonlinear right-hand side, the
companion-matrix roots of the DVC characteristic polynomial, and the FFT of
the ringdown trace.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wfdem.assembly import assemble_farm
from wfdem.cases import single_wt_farm
from wfdem.farm import GridThevenin, PerUnitBases, WtParams, build_network_matrices
from wfdem.powerflow import solve_powerflow, wt_operating_point
from wfdem.wt import (SagSpec, dc_link_seconds, linearize_wt, nonlinear_rhs,
                      simulate_wt_nonlinear, stiff_equilibrium,
                      stiff_grid_mode, terminal_quantities)

BASES = PerUnitBases(s_wt_mva=1.5, v_coll_kv=35.0, u_dc_base_kv=1.2)


def make_wt(p=0.9, kp=1.0, ki=300.0, kp_pll=60.0, ki_pll=1400.0):
    return WtParams(id="wt01", p_m0=p, c_dc=0.09, u_dc0=1.0,
                    kp_dvc=kp, ki_dvc=ki, kp_pll=kp_pll, ki_pll=ki_pll)


def equilibrium_state(wt, grid, e_mag=1.0):
    x0, _ = stiff_equilibrium(wt, BASES, grid, e_mag)
    return x0


def fd_jacobian(fn, x0, eps=1e-5):
    n = len(x0)
    out = np.empty((len(fn(x0)), n))
    for k in range(n):
        dx = np.zeros(n)
        dx[k] = eps
        out[:, k] = (fn(x0 + dx) - fn(x0 - dx)) / (2 * eps)
    return out


# ---------------------------------------------------------------------------
# linearization


def test_dc_link_constant_nominal_value():
    # 90000 uF at 1.2 kV on 1.5 MVA is 0.0864 p.u.-seconds
    wt = make_wt()
    assert abs(dc_link_seconds(wt, BASES) - 0.0864) < 1e-15


def test_aligned_frame_block_structure():
    farm = single_wt_farm(p_m0=0.9, grid_r_pu=0.0, grid_l_pu=0.0)
    sol = solve_powerflow(farm)
    wt = farm.wts[0][0]
    op = wt_operating_point(sol, wt)
    assert op.delta0 == 0.0
    blk = linearize_wt(wt, op, farm.bases)
    cpr = dc_link_seconds(wt, farm.bases) * wt.u_dc0
    assert np.allclose(blk.b[0], [-op.i_d0 / cpr, 0.0], atol=1e-14)
    assert np.allclose(blk.c[:, 2], [0.0, op.i_d0], atol=1e-14)
    # no feedthrough: at a fixed state the injected current does not depend
    # on the source voltage
    x0 = np.array([wt.u_dc0, op.i_d0 / wt.ki_dvc, op.delta0, 0.0])
    _, i_lo, _ = terminal_quantities(x0, np.array([0.9, 0.1]), wt, farm.grid)
    _, i_hi, _ = terminal_quantities(x0, np.array([1.1, -0.2]), wt, farm.grid)
    assert np.array_equal(i_lo, i_hi)


@given(st.floats(0.2, 1.0), st.floats(0.5, 3.0), st.floats(100.0, 600.0),
       st.floats(0.0, 0.003), st.floats(0.0, 0.03))
def test_block_matches_finite_differences_stiff_terminal(p, kp, ki, rg, xl):
    """With z = 0 the terminal voltage is the input, so the block (a, b)
    must equal Jacobians of the nonlinear right-hand side."""
    wt = make_wt(p, kp, ki)
    stiff = GridThevenin(0.0, 0.0)
    x0 = equilibrium_state(wt, stiff)
    e0 = np.array([1.0, 0.0])

    farm = single_wt_farm(p_m0=p, kp_dvc=kp, ki_dvc=ki,
                          grid_r_pu=0.0, grid_l_pu=0.0)
    sol = solve_powerflow(farm)
    blk = linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)

    a_fd = fd_jacobian(lambda x: nonlinear_rhs(x, e0, wt, BASES, stiff), x0)
    b_fd = fd_jacobian(
        lambda e: nonlinear_rhs(x0, e, wt, BASES, stiff), e0)
    scale = max(1.0, np.abs(blk.a).max())
    assert np.abs(blk.a - a_fd).max() < 1e-6 * scale
    assert np.abs(blk.b - b_fd).max() < 1e-6 * scale


@given(st.floats(0.2, 1.0), st.floats(0.5, 3.0), st.floats(100.0, 600.0),
       st.floats(0.0002, 0.003), st.floats(0.002, 0.03))
def test_closed_loop_matches_finite_differences(p, kp, ki, rg, xl):
    """Behind a Thevenin branch the assembled single-WT matrix must equal
    the Jacobian of the closed nonlinear model."""
    wt = make_wt(p, kp, ki)
    grid = GridThevenin(rg, xl)
    farm = single_wt_farm(p_m0=p, kp_dvc=kp, ki_dvc=ki,
                          grid_r_pu=rg, grid_l_pu=xl)
    sol = solve_powerflow(farm)
    blk = linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
    fss = assemble_farm([blk], build_network_matrices(farm))

    x0 = equilibrium_state(wt, grid)
    e0 = np.array([1.0, 0.0])
    a_fd = fd_jacobian(lambda x: nonlinear_rhs(x, e0, wt, BASES, grid), x0)
    b_fd = fd_jacobian(lambda e: nonlinear_rhs(x0, e, wt, BASES, grid), e0)
    scale = max(1.0, np.abs(fss.a_s).max())
    assert np.abs(fss.a_s - a_fd).max() < 1e-6 * scale
    assert np.abs(fss.b_s - b_fd).max() < 1e-6 * scale


def test_output_matrix_matches_finite_differences():
    from wfdem.wt import rotation
    wt = make_wt(0.8, 1.5, 250.0)
    grid = GridThevenin(0.001, 0.01)
    farm = single_wt_farm(p_m0=0.8, kp_dvc=1.5, ki_dvc=250.0)
    sol = solve_powerflow(farm)
    blk = linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
    x0 = equilibrium_state(wt, grid)

    def injected_current(x):
        i_d = wt.kp_dvc * (x[0] - wt.u_dc0) + wt.ki_dvc * x[1]
        return rotation(x[2]).T @ np.array([i_d, 0.0])

    c_fd = fd_jacobian(injected_current, x0)
    assert np.abs(blk.c - c_fd).max() < 1e-6


# ---------------------------------------------------------------------------
# analytic stiff-grid mode


def test_stiff_grid_mode_nominal():
    wt = make_wt(kp=1.0, ki=300.0)
    farm = single_wt_farm(grid_r_pu=0.0, grid_l_pu=0.0)
    op = wt_operating_point(solve_powerflow(farm), farm.wts[0][0])
    lam = stiff_grid_mode(wt, op, BASES)
    # oracle: companion-matrix roots of C' s^2 + kp u s + ki u
    cpr = 0.0864
    roots = np.roots([cpr, 1.0, 300.0])
    assert min(abs(lam[0] - r) for r in roots) < 1e-9
    assert abs(lam[0].real - (-5.787037)) < 1e-5
    assert abs(abs(lam[0].imag) - 58.640706) < 1e-5
    assert abs(lam[0].imag) / (2 * np.pi) == pytest.approx(9.33, abs=0.01)


def test_stiff_grid_mode_integrator_removed_limit():
    farm = single_wt_farm(grid_r_pu=0.0, grid_l_pu=0.0)
    op = wt_operating_point(solve_powerflow(farm), farm.wts[0][0])
    wt = make_wt(kp=1.0, ki=1e-6)
    lam = sorted(stiff_grid_mode(wt, op, BASES), key=abs)
    assert abs(lam[0]) < 1e-5                       # integrator root at 0
    assert abs(lam[1] - (-1.0 / 0.0864)) < 1e-3     # -kp u / C'


def test_stiff_grid_mode_real_part_scales_with_kp():
    farm = single_wt_farm(grid_r_pu=0.0, grid_l_pu=0.0)
    op = wt_operating_point(solve_powerflow(farm), farm.wts[0][0])
    lam1 = stiff_grid_mode(make_wt(kp=1.0), op, BASES)
    lam2 = stiff_grid_mode(make_wt(kp=2.0), op, BASES)
    assert abs(lam2[0].real / lam1[0].real - 2.0) < 1e-12


def test_stiff_grid_mode_overdamped_returns_two_reals():
    farm = single_wt_farm(grid_r_pu=0.0, grid_l_pu=0.0)
    op = wt_operating_point(solve_powerflow(farm), farm.wts[0][0])
    lam = stiff_grid_mode(make_wt(kp=25.0, ki=300.0), op, BASES)
    assert np.all(lam.imag == 0)
    assert np.all(lam.real < 0)
    roots = np.roots([0.0864, 25.0, 300.0])
    assert np.allclose(sorted(lam.real), sorted(roots), rtol=1e-9)


# ---------------------------------------------------------------------------
# nonlinear simulation


def test_equilibrium_is_fixed_point_of_rhs():
    wt = make_wt(p=0.95)
    grid = GridThevenin(0.001, 0.01)
    x0, _ = stiff_equilibrium(wt, BASES, grid)
    rhs = nonlinear_rhs(x0, np.array([1.0, 0.0]), wt, BASES, grid)
    assert np.abs(rhs).max() < 1e-9


def test_powerflow_point_is_nonlinear_equilibrium():
    # the two steady-state paths (Newton vs fixed point) must agree
    farm = single_wt_farm(p_m0=0.85, grid_r_pu=0.001, grid_l_pu=0.01)
    wt = farm.wts[0][0]
    op = wt_operating_point(solve_powerflow(farm), wt)
    x = np.array([wt.u_dc0, op.i_d0 / wt.ki_dvc, op.delta0, 0.0])
    rhs = nonlinear_rhs(x, np.array([1.0, 0.0]), wt, farm.bases,
                        GridThevenin(0.001, 0.01))
    assert np.abs(rhs).max() < 1e-9


def test_zero_disturbance_stays_at_steady_state():
    wt = make_wt()
    traj = simulate_wt_nonlinear(wt, BASES, GridThevenin(0.001, 0.01),
                                 SagSpec(0.0, 0.1), horizon=0.5, dt=1e-3)
    assert np.abs(traj.u_dc - traj.u_dc[0]).max() < 1e-9
    assert np.abs(traj.delta - traj.delta[0]).max() < 1e-9
    assert np.abs(traj.p_e - wt.p_m0).max() < 1e-9


def test_predisturbance_samples_hold_steady_state():
    wt = make_wt()
    traj = simulate_wt_nonlinear(wt, BASES, GridThevenin(0.001, 0.01),
                                 SagSpec(0.05, 0.25), horizon=1.0, dt=1e-3)
    pre = traj.t < 0.25
    assert np.abs(traj.u_dc[pre] - traj.u_dc[0]).max() < 1e-9


def test_ringdown_frequency_matches_analytic_mode():
    wt = make_wt(p=0.9)
    grid = GridThevenin(0.001, 0.01)
    traj = simulate_wt_nonlinear(wt, BASES, grid, SagSpec(0.05, 0.1),
                                 horizon=2.0, dt=1e-3)
    post = traj.u_dc[200:] - traj.u_dc[-1]
    freqs = np.fft.rfftfreq(len(post), 1e-3)
    amp = np.abs(np.fft.rfft(post))
    peak_hz = freqs[np.argmax(amp[1:]) + 1]

    farm = single_wt_farm(grid_r_pu=0.0, grid_l_pu=0.0, p_m0=0.9)
    op = wt_operating_point(solve_powerflow(farm), wt)
    f_mode = abs(stiff_grid_mode(wt, op, BASES)[0].imag) / (2 * np.pi)
    assert abs(peak_hz - f_mode) / f_mode < 0.15


def test_small_sag_matches_linear_closure():
    from wfdem.validation import linearization_check
    chk = linearization_check(make_wt(), BASES, GridThevenin(0.001, 0.01),
                              sag_fraction=0.001)
    assert chk.in_regime
    assert chk.nrmse_u_dc < 0.01


def test_bad_dt_rejected():
    with pytest.raises(ValueError):
        simulate_wt_nonlinear(make_wt(), BASES, GridThevenin(0.001, 0.01),
                              SagSpec(0.01, 0.1), horizon=0.1, dt=0.0)
