"""Error metrics, linear simulation, and trajectory comparison.

Oracles: hand-evaluated relative distances, the textbook underdamped step
response for the stiff single WT, and a fixed-step RK4 integrator run at a
tenth of the simulation step.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import solved_case
from wfdem.assembly import FarmStateSpace
from wfdem.cases import identical_zero_network_farm
from wfdem.clustering import ModeClusters, cluster_modes
from wfdem.farm import GridThevenin, PerUnitBases, WtParams
from wfdem.modal import ConcernSet, eig_biorthogonal
from wfdem.validation import (LinearResponse, compare_responses, error_E,
                              error_Eprime, linearization_check, nrmse,
                              simulate_linear)
from wfdem.wt import SagSpec

BASES = PerUnitBases(s_wt_mva=1.5, v_coll_kv=35.0)


def concern_of(values) -> ConcernSet:
    eig = np.asarray(values, dtype=complex)
    return ConcernSet(mode_indices=tuple(range(len(eig))),
                      eigenvalues=eig, kinds=("u_dc",))


def one_cluster(concern: ConcernSet) -> ModeClusters:
    return ModeClusters(members=(concern.mode_indices,),
                        centres=np.array([concern.eigenvalues.mean()]),
                        inertia=0.0)


def singleton_clusters(concern: ConcernSet) -> ModeClusters:
    return ModeClusters(members=tuple((m,) for m in concern.mode_indices),
                        centres=concern.eigenvalues.copy(),
                        inertia=0.0)


def stiff_single_wt_fss() -> tuple[FarmStateSpace, WtParams]:
    from wfdem.assembly import assemble_farm
    from wfdem.farm import build_network_matrices
    from wfdem.powerflow import solve_powerflow, wt_operating_point
    from wfdem.wt import linearize_wt
    farm = identical_zero_network_farm(1, p_m0=0.9)
    sol = solve_powerflow(farm)
    wt = farm.wts[0][0]
    block = linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
    return assemble_farm([block], build_network_matrices(farm)), wt


# ---------------------------------------------------------------------------
# cluster-centre error


def test_error_e_zero_for_identical_modes():
    concern = concern_of([-2 + 30j] * 4)
    assert error_E(concern, one_cluster(concern)) == 0.0


def test_error_e_two_mode_example():
    concern = concern_of([-1 + 10j, -1.1 + 10.2j])
    e = error_E(concern, one_cluster(concern))
    # centre -1.05+10.1j; worse mode is -1+10j: |0.05-0.1j|/|-1+10j|
    expected = np.sqrt(0.0125) / np.sqrt(101.0)
    assert e == pytest.approx(expected, rel=1e-12)
    assert e == pytest.approx(0.011124, abs=1e-6)


def test_error_e_zero_for_singleton_clusters():
    concern = concern_of([-1 + 10j, -2 + 20j, -3 + 30j])
    assert error_E(concern, singleton_clusters(concern)) == 0.0


def test_error_e_rejects_uncovered_modes():
    concern = concern_of([-1 + 10j, -2 + 20j])
    clusters = ModeClusters(members=((0,),), centres=np.array([-1 + 10j]),
                            inertia=0.0)
    with pytest.raises(ValueError, match="cover"):
        error_E(concern, clusters)


def test_error_e_non_increasing_under_split(case_b):
    concern = case_b.concern
    whole = cluster_modes(concern, 1, seed=42)
    split = cluster_modes(concern, 3, seed=42)
    assert error_E(concern, split) <= error_E(concern, whole)


# ---------------------------------------------------------------------------
# nearest-DEM-mode error


def test_error_eprime_zero_for_equal_sets():
    concern = concern_of([-1 + 10j, -2 + 20j])
    assert error_Eprime(concern, concern) == 0.0


def test_error_eprime_nearest_example():
    concern = concern_of([-1 + 10j])
    dem = concern_of([-1 + 9j, -5 + 10j])
    e = error_Eprime(concern, dem)
    assert e == pytest.approx(1.0 / np.sqrt(101.0), rel=1e-12)
    assert e == pytest.approx(0.0995, abs=1e-4)


@given(st.lists(st.complex_numbers(min_magnitude=1.0, max_magnitude=100.0),
                min_size=1, max_size=6),
       st.lists(st.complex_numbers(min_magnitude=1.0, max_magnitude=100.0),
                min_size=1, max_size=6))
def test_error_eprime_matches_brute_force(detailed, dem):
    concern, dem_set = concern_of(detailed), concern_of(dem)
    brute = max(min(abs(a - b) for b in dem_set.eigenvalues) / abs(a)
                for a in concern.eigenvalues)
    assert error_Eprime(concern, dem_set) == pytest.approx(brute, rel=1e-12)


def test_error_eprime_empty_dem_rejected():
    with pytest.raises(ValueError, match="empty"):
        error_Eprime(concern_of([-1 + 10j]), concern_of([]))


def test_case_a_centre_and_nearest_errors_comparable(case_a):
    # with uniform controllers the single aggregate lands near the cluster
    # centre, so the two error metrics stay within a small factor
    s = solved_case("a")
    clusters, _, dem = s.dem(1)
    e = error_E(s.concern, clusters)
    ep = error_Eprime(s.concern, dem.concern)
    assert 0.4 <= ep / e <= 2.5


def test_case_c_single_machine_dem_much_worse_in_time_domain(case_c):
    s = solved_case("c")
    sag = SagSpec(0.05, 0.1)
    detailed = simulate_linear(s.fss, sag, horizon=2.0, dt=1e-3)
    vals = {}
    for c in (1, 3):
        _, _, dem = s.dem(c)
        resp = simulate_linear(dem.state_space, sag, horizon=2.0, dt=1e-3)
        mapping = {g: tuple((wt, 1.5) for wt in ids)
                   for g, ids in dem.provenance.items()}
        vals[c] = compare_responses(detailed, resp, mapping)["poi_p"]
    assert vals[1] > 2.0 * vals[3]


# ---------------------------------------------------------------------------
# linear simulation


def test_zero_sag_gives_identically_zero_response():
    fss, _ = stiff_single_wt_fss()
    resp = simulate_linear(fss, SagSpec(0.0, 0.1), horizon=0.5, dt=1e-3)
    assert np.abs(resp.u_dc["wt01"]).max() == 0.0
    assert np.abs(resp.poi_p).max() == 0.0
    assert not eig_biorthogonal(fss.a_s).unstable


def test_stiff_wt_step_matches_second_order_closed_form():
    fss, wt = stiff_single_wt_fss()
    sag = SagSpec(0.05, 0.1)
    resp = simulate_linear(fss, sag, horizon=1.0, dt=1e-3)

    # forced 2nd-order system: z1'' + a1 z1' + a0 z1 = F, x(0) = 0
    cpr = 0.0864 * wt.u_dc0
    u_d0, i_d0 = 1.0, wt.p_m0
    a1 = u_d0 * wt.kp_dvc / cpr
    a0 = u_d0 * wt.ki_dvc / cpr
    f = -(i_d0 / cpr) * (-sag.fraction)      # du_d = -sag on the d axis
    omega = np.sqrt(a0)
    zeta = a1 / (2 * omega)
    omega_d = omega * np.sqrt(1 - zeta**2)
    t = resp.t
    shifted = np.clip(t - sag.t_start, 0.0, None)
    expected = (f / omega_d) * np.exp(-zeta * omega * shifted) \
        * np.sin(omega_d * shifted)
    expected[t < sag.t_start] = 0.0
    assert np.abs(resp.u_dc["wt01"] - expected).max() < 1e-6


def test_matrix_exponential_agrees_with_fine_rk4(case_a):
    fss = solved_case("a").fss
    sag = SagSpec(0.05, 0.0)     # start at t=0 so the RK4 forcing is smooth
    dt = 1e-3
    resp = simulate_linear(fss, sag, horizon=0.2, dt=dt)

    de = fss.b_s @ np.array([-sag.fraction, 0.0])
    n = fss.n_states
    x = np.zeros(n)
    fine = dt / 10.0
    xs = [x.copy()]
    for _ in range(200):
        for _ in range(10):
            k1 = fss.a_s @ x + de
            k2 = fss.a_s @ (x + 0.5 * fine * k1) + de
            k3 = fss.a_s @ (x + 0.5 * fine * k2) + de
            k4 = fss.a_s @ (x + fine * k3) + de
            x = x + fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x.copy())
    xs = np.array(xs).T
    udc_rk4 = xs[fss.state_index("wt01", "u_dc")]
    assert np.abs(resp.u_dc["wt01"] - udc_rk4).max() < 1e-7


def test_unstable_matrix_is_flagged():
    fss, _ = stiff_single_wt_fss()
    import dataclasses
    unstable = dataclasses.replace(fss, a_s=-fss.a_s)
    resp = simulate_linear(unstable, SagSpec(0.05, 0.0), horizon=0.05,
                           dt=1e-3)
    assert np.all(np.isfinite(resp.u_dc["wt01"]))
    assert eig_biorthogonal(unstable.a_s).unstable


# ---------------------------------------------------------------------------
# comparison


def test_nrmse_identical_is_zero():
    y = np.sin(np.linspace(0, 5, 100))
    assert nrmse(y, y) == (0.0, False)


def test_nrmse_flat_reference_falls_back_to_absolute():
    y = np.ones(50)
    value, absolute = nrmse(y, y + 0.25)
    assert absolute
    assert value == pytest.approx(0.25)


def test_nrmse_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nrmse(np.zeros(5), np.zeros(6))


def test_compare_responses_identical(case_b):
    _, _, dem = solved_case("b").dem(3)
    resp = simulate_linear(dem.state_space, SagSpec(0.05, 0.1), 0.5, 1e-3)
    mapping = {int(k): ((f"group{k}", 1.0),) for k in dem.provenance}
    # compare the DEM against itself with each group mapped to its machine
    renamed = LinearResponse(t=resp.t, u_dc=dict(resp.u_dc),
                             poi_p=resp.poi_p, poi_i=resp.poi_i)
    out = compare_responses(resp, renamed, mapping)
    assert max(out.values()) == 0.0
    assert not dem.modal.unstable


def test_compare_responses_grid_mismatch_rejected():
    fss, _ = stiff_single_wt_fss()
    a = simulate_linear(fss, SagSpec(0.05, 0.1), 0.2, 1e-3)
    b = simulate_linear(fss, SagSpec(0.05, 0.1), 0.2, 2e-3)
    with pytest.raises(ValueError, match="time grid"):
        compare_responses(a, b, {})


# ---------------------------------------------------------------------------
# linearization check


def test_linearization_check_zero_sag_is_zero():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    chk = linearization_check(wt, BASES, GridThevenin(0.001, 0.01),
                              sag_fraction=0.0, horizon=0.3)
    assert chk.nrmse_u_dc == 0.0


def test_linearization_check_small_sag_within_band():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    chk = linearization_check(wt, BASES, GridThevenin(0.001, 0.01),
                              sag_fraction=0.001)
    assert chk.in_regime
    assert chk.nrmse_u_dc < 0.01


def test_linearization_check_large_sag_flagged():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    chk = linearization_check(wt, BASES, GridThevenin(0.001, 0.01),
                              sag_fraction=0.10)
    assert not chk.in_regime
    assert chk.nrmse_u_dc > 0.005      # visible nonlinear departure