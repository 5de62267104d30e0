"""Steady-state solver and the linearization point it fixes.

Oracles: for the single-WT case, the scalar fixed point u = e + z conj(P/u);
for the power balance, the slack power and the series losses from the bus
voltages; for the linearization point, the WT operating point and its
block's input and output maps formed from the terminal voltage.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (random_pll_grid_farm, random_radial_farm, stiff_grid,
                     terminal_voltages)
from oracles import (block_io_at, fixed_point_terminal, network_losses,
                     operating_point, slack_power)
from wfdem import powerflow
from wfdem.cases import case_farm, identical_zero_network_farm, single_wt_farm
from wfdem.powerflow import (SLACK_E0, PowerflowError, solve_powerflow,
                             write_bus_csv)
from wfdem.wt import linearize_wt, rotation


def total_injection(farm) -> complex:
    return sum(wt.p_m0 * wt.capacity_ratio(farm.bases) for wt, _ in farm.wts)


def assert_converges_and_balances(farm) -> None:
    sol = solve_powerflow(farm)
    assert sol.mismatch_history[-1] < 1e-8
    balance = slack_power(farm, sol) - (total_injection(farm)
                                        - network_losses(farm, sol))
    assert abs(balance) < 1e-8


# ---------------------------------------------------------------------------


def test_zero_impedance_link_gives_flat_voltage():
    farm = identical_zero_network_farm(1, p_m0=0.8)
    wt, u = terminal_voltages(farm, solve_powerflow(farm))[0]
    assert u == SLACK_E0
    assert abs(complex(*operating_point(u, wt).i_xy0) - 0.8) < 1e-15


def test_single_wt_matches_fixed_point_oracle():
    farm = single_wt_farm(p_m0=1.0, grid_r_pu=0.001, grid_l_pu=0.01)
    u_oracle = fixed_point_terminal(1.0, 0.001 + 0.01j)
    _, u = terminal_voltages(farm, solve_powerflow(farm))[0]
    assert abs(u - u_oracle) < 1e-10


def test_33wt_farm_converges_and_balances():
    assert_converges_and_balances(case_farm("a"))


def test_33wt_farm_on_a_stiff_grid_converges_and_balances():
    # the POI on the infinite bus's node, the 33 collector nodes live
    assert_converges_and_balances(stiff_grid(case_farm("b")))


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
def test_mismatch_history_monotone_on_shipped_farms(case):
    # guarded regression, not a theorem
    sol = solve_powerflow(case_farm(case))
    hist = sol.mismatch_history
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))


def test_nonconvergence_reports_final_mismatch(monkeypatch):
    monkeypatch.setattr(powerflow, "MAX_ITER", 1)
    with pytest.raises(PowerflowError, match="no convergence after 1 "
                       "iterations, max [|]P,Q[|] mismatch"):
        solve_powerflow(case_farm("a"))


def test_nonconvergence_reports_history_and_grid_loading():
    # a 6-WT farm past the tie's loadability: Newton diverges from flat start
    farm = random_pll_grid_farm(3)
    with pytest.raises(PowerflowError) as exc:
        solve_powerflow(farm)
    msg = str(exc.value)
    history = msg[msg.index("(history: ") + 10:msg.index(")")].split(", ")
    assert len(history) == 51                 # flat start + 50 iterations
    assert all(np.isfinite(float(h)) for h in history)
    p_total = total_injection(farm)
    s_sc = abs(SLACK_E0) ** 2 / abs(complex(farm.grid.r_pu, farm.grid.l_pu))
    assert f"P = {p_total:.6g} p.u." in msg
    assert f"|E0|^2/|Z_grid| = {s_sc:.6g} p.u." in msg


@given(st.integers(0, 150))
def test_power_balance_on_random_farms(seed):
    assert_converges_and_balances(random_radial_farm(seed))


def test_deterministic_solution():
    farm = case_farm("b")
    s1 = solve_powerflow(farm)
    s2 = solve_powerflow(farm)
    assert np.array_equal(s1.v, s2.v)
    assert s1.mismatch_history == s2.mismatch_history
    wt, u1 = terminal_voltages(farm, s1)[0]
    _, u2 = terminal_voltages(farm, s2)[0]
    b1, b2 = linearize_wt(wt, u1, farm.bases), linearize_wt(wt, u2, farm.bases)
    for name in ("a", "b", "c", "i_xy0_sys"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


# ---------------------------------------------------------------------------
# operating point


def assert_block_at_point(u: complex, wt) -> None:
    """`linearize_wt` at u has, bit for bit, the input and output maps and
    the operating current formed from the operating point at u."""
    bases = single_wt_farm().bases
    blk = linearize_wt(wt, u, bases)
    b, c, i_xy0_sys = block_io_at(operating_point(u, wt), wt, bases)
    assert np.array_equal(blk.b, b)
    assert np.array_equal(blk.c, c)
    assert np.array_equal(blk.i_xy0_sys, i_xy0_sys)


def test_operating_point_aligned_case():
    u = 1.0 + 0j
    wt = single_wt_farm(p_m0=0.9).wts[0][0]
    op = operating_point(u, wt)
    assert op.delta0 == 0.0
    assert op.u_d0 == 1.0
    assert op.i_d0 == 0.9
    # unity power factor: the current lies along the terminal voltage
    cross = op.i_xy0[0] * op.u_xy0[1] - op.i_xy0[1] * op.u_xy0[0]
    assert abs(cross) <= 1e-15
    assert_block_at_point(u, wt)


def test_operating_point_rotated_case():
    u = 1.02 * np.exp(0.05j)
    wt = single_wt_farm(p_m0=1.0).wts[0][0]
    op = operating_point(u, wt)
    assert abs(op.delta0 - 0.05) < 1e-14
    assert abs(op.u_d0 - 1.02) < 1e-14
    assert abs(op.i_d0 - 1.0 / 1.02) < 1e-14      # 0.9804
    assert abs(op.i_d0 - 0.9804) < 1e-4
    assert_block_at_point(u, wt)


@given(st.floats(0.9, 1.1), st.floats(-0.5, 0.5), st.floats(0.2, 1.0))
def test_pll_lock_round_trip(mag, angle, p):
    u = mag * np.exp(1j * angle)
    wt = single_wt_farm(p_m0=p).wts[0][0]
    op = operating_point(u, wt)
    u_dq = rotation(op.delta0) @ op.u_xy0
    assert abs(u_dq[0] - op.u_d0) < 1e-12
    assert abs(u_dq[1]) < 1e-12
    i_dq = rotation(op.delta0) @ op.i_xy0
    assert abs(i_dq[0] - op.i_d0) < 1e-12
    assert abs(i_dq[1]) < 1e-12
    assert_block_at_point(u, wt)


def test_bus_csv_dump(tmp_path):
    farm = case_farm("a")
    sol = solve_powerflow(farm)
    path = tmp_path / "bus.csv"
    write_bus_csv(farm, sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bus_id,vx,vy,p,q"
    assert len(lines) == 1 + len(farm.buses)
