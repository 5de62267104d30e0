"""Error metrics, linear simulation, and trajectory comparison.

Oracles: hand-evaluated relative distances, the textbook underdamped step
response for the stiff single WT, a fixed-step RK4 integrator run at a
tenth of the simulation step, and an exact per-step discretization (one
matrix exponential of the augmented state matrix, then one mat-vec a step)
for the modal closed form.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import expm

from helpers import (ROOT, SolvedFarm, ladder_farm, run_python_bounded,
                     solved_case, state_matrix)
from oracles import (centre_errors_by_mode, complex_basis,
                     group_means_by_member, linearization_check,
                     nearest_errors_by_mode, simulate_linear_direct)
from wfdem.assembly import FarmStateSpace
from wfdem.cases import identical_zero_network_farm
from wfdem.cli import RunConfig, emit_plot, run_pipeline
from wfdem.clustering import ModeClusters, cluster_modes
from wfdem.farm import (FarmDescription, GridThevenin, PerUnitBases,
                        WtParams, load_farm, save_farm)
from wfdem.modal import (_COND_MAX, ConcernSet, DefectiveMatrixError,
                         FarmModel, ModalSolution, eig_biorthogonal)
from wfdem.powerflow import SLACK_E0, solve_powerflow
from wfdem.validation import (_ANCHOR, _STEPS, LinearResponse,
                              centre_errors, compare_responses, error_E,
                              error_Eprime, nearest_errors, nrmse,
                              simulate_linear)
from wfdem.wt import STATE_KINDS, SagSpec

BASES = PerUnitBases(s_wt_mva=1.5, v_coll_kv=35.0)


def concern_of(values) -> ConcernSet:
    eig = np.asarray(values, dtype=complex)
    return ConcernSet(mode_indices=tuple(range(len(eig))),
                      eigenvalues=eig)


def one_cluster(concern: ConcernSet) -> ModeClusters:
    return ModeClusters(labels=np.zeros(len(concern), dtype=int),
                        centres=np.array([concern.eigenvalues.mean()]),
                        inertia=0.0)


def singleton_clusters(concern: ConcernSet) -> ModeClusters:
    return ModeClusters(labels=np.arange(len(concern)),
                        centres=concern.eigenvalues.copy(),
                        inertia=0.0)


def stepper_response(fss: FarmStateSpace, sag: SagSpec, horizon: float,
                     dt: float) -> LinearResponse:
    """Exact per-step discretization of the piecewise-constant sag input.

    The augmented matrix [[A_s, B_s de], [0, 0]] is exponentiated once; the
    input switches on at the first step starting at or after t_start.
    """
    n = fss.n_states
    de = -sag.fraction * np.array([SLACK_E0.real, SLACK_E0.imag])
    n_steps = int(round(horizon / dt))
    t = np.arange(n_steps + 1) * dt
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = fss.a_s
    aug[:n, n] = fss.b_s @ de
    phi = expm(aug * dt)
    xs = np.zeros((n, n_steps + 1))
    x_aug = np.zeros(n + 1)
    for k in range(n_steps):
        if x_aug[n] == 0.0 and t[k] >= sag.t_start:
            x_aug[n] = 1.0
        x_aug = phi @ x_aug
        xs[:, k + 1] = x_aug[:n]
    return LinearResponse(
        t=t, u_dc=np.array([xs[fss.labels.index((wt_id, "u_dc"))]
                            for wt_id in fss.wt_order]),
        poi_p=fss.c_p @ xs + (fss.d_p @ de) * (t >= sag.t_start))


def per_wt(fss: FarmStateSpace) -> np.ndarray:
    """Identity shares: one u_dc row per WT, in `fss.wt_order`."""
    return np.eye(len(fss.wt_order))


def max_relative_difference(resp: LinearResponse,
                            ref: LinearResponse) -> float:
    """Worst difference per signal family over that family's largest value.

    The families are the u_dc set and the POI power; a family that is zero
    throughout in `ref` must be zero in `resp` too.
    """
    assert np.array_equal(resp.t, ref.t)
    assert resp.u_dc.shape == ref.u_dc.shape
    worst = 0.0
    for got, want in ((resp.u_dc, ref.u_dc), (resp.poi_p, ref.poi_p)):
        diff = float(np.abs(got - want).max())
        scale = float(np.abs(want).max())
        worst = max(worst, diff / scale if scale > 0 else
                    (np.inf if diff > 0 else 0.0))
    return worst


def stiff_single_wt_fss() -> tuple[FarmStateSpace, WtParams]:
    from wfdem.assembly import linear_model
    farm = identical_zero_network_farm(1, p_m0=0.9)
    return linear_model(farm, solve_powerflow(farm)), farm.wts[0][0]


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


def test_error_e_rejects_labels_of_another_length():
    concern = concern_of([-1 + 10j, -2 + 20j])
    for labels in ([0], [0, 0, 0], []):
        clusters = ModeClusters(labels=np.array(labels, dtype=int),
                                centres=np.array([-1 + 10j]), inertia=0.0)
        with pytest.raises(ValueError,
                           match=f"^{len(labels)} cluster labels for 2 "):
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


def test_zero_mode_has_no_relative_error():
    concern = concern_of([-1 + 10j, 0j])
    with pytest.raises(ZeroDivisionError, match="zero-magnitude mode"):
        error_E(concern, one_cluster(concern))
    with pytest.raises(ZeroDivisionError, match="zero-magnitude mode"):
        error_Eprime(concern, concern_of([-1 + 9j]))


MODES = st.builds(complex, st.floats(-1e3, 1e3),
                  st.floats(-1e3, 1e3)).filter(bool)


@given(st.lists(MODES, min_size=1, max_size=12),
       st.lists(MODES, min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.lists(MODES, min_size=1, max_size=6))
# np.abs rounds |z| of these modes differently from Python's abs
@example([82.551 - 23.264j, 8.725 + 37.108j, 45.931 + 5.071j],
         [-64.869 - 37.952j], [0], [8.292 + 77.898j])
# a subnormal |mode| puts the relative error beyond the largest float
@example([2.2250738585e-313j], [1j], [0], [1j])
def test_mode_errors_equal_the_per_mode_abs_loop(modes, centres, labels,
                                                 dem):
    concern, dem_set = concern_of(modes), concern_of(dem)
    label = [labels[k % len(labels)] % len(centres)
             for k in range(len(modes))]
    clusters = ModeClusters(labels=np.array(label),
                            centres=np.array(centres, dtype=complex),
                            inertia=0.0)
    assert np.array_equal(centre_errors(concern, clusters),
                          centre_errors_by_mode(concern, clusters))
    assert np.array_equal(nearest_errors(concern, dem_set),
                          nearest_errors_by_mode(concern, dem_set))


def test_case_a_centre_and_nearest_errors_comparable(case_a):
    # with uniform controllers the single aggregate lands near the cluster
    # centre, so the two error metrics stay within a small factor
    s = solved_case("a")
    clusters, _, dem = s.dem(1)
    e = error_E(s.concern, clusters)
    ep = error_Eprime(s.concern, dem.model.concern)
    assert 0.4 <= ep / e <= 2.5


def test_case_c_single_machine_dem_much_worse_in_time_domain(case_c):
    s = solved_case("c")
    sag = SagSpec(0.05, 0.1)
    vals = {}
    for c in (1, 3):
        _, _, dem = s.dem(c)
        detailed = simulate_linear(s.fss, s.modal, sag, horizon=2.0,
                                   dt=1e-3, shares=dem.shares)
        resp = simulate_linear(dem.model.fss, dem.model.modal, sag,
                               horizon=2.0, dt=1e-3,
                               shares=per_wt(dem.model.fss))
        vals[c] = compare_responses(detailed, resp,
                                    tuple(dem.members))["poi_p"]
    assert vals[1] > 2.0 * vals[3]


# ---------------------------------------------------------------------------
# linear simulation


def stiff_single_wt_modal():
    fss, wt = stiff_single_wt_fss()
    return fss, eig_biorthogonal(fss.a_s), wt


def test_zero_sag_gives_identically_zero_response():
    fss, modal, _ = stiff_single_wt_modal()
    resp = simulate_linear(fss, modal, SagSpec(0.0, 0.1), horizon=0.5,
                           dt=1e-3, shares=per_wt(fss))
    assert np.abs(resp.u_dc[0]).max() == 0.0
    assert np.abs(resp.poi_p).max() == 0.0
    assert not modal.unstable


def test_stiff_wt_step_matches_second_order_closed_form():
    fss, modal, wt = stiff_single_wt_modal()
    sag = SagSpec(0.05, 0.1)
    resp = simulate_linear(fss, modal, sag, horizon=1.0, dt=1e-3,
                           shares=per_wt(fss))

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
    assert np.abs(resp.u_dc[0] - expected).max() < 1e-6


def test_matrix_exponential_agrees_with_fine_rk4(case_a):
    s = solved_case("a")
    fss = s.fss
    sag = SagSpec(0.05, 0.0)     # start at t=0 so the RK4 forcing is smooth
    dt = 1e-3
    resp = simulate_linear(fss, s.modal, sag, horizon=0.2, dt=dt,
                           shares=per_wt(fss))

    de = fss.b_s @ np.array([-sag.fraction, 0.0])
    a = state_matrix(s.farm, s.sol)
    n = fss.n_states
    x = np.zeros(n)
    fine = dt / 10.0
    xs = [x.copy()]
    for _ in range(200):
        for _ in range(10):
            k1 = a @ x + de
            k2 = a @ (x + 0.5 * fine * k1) + de
            k3 = a @ (x + 0.5 * fine * k2) + de
            k4 = a @ (x + fine * k3) + de
            x = x + fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x.copy())
    xs = np.array(xs).T
    udc_rk4 = xs[fss.labels.index(("wt01", "u_dc"))]
    assert fss.wt_order[0] == "wt01"
    assert np.abs(resp.u_dc[0] - udc_rk4).max() < 1e-7


def test_unstable_matrix_is_flagged():
    fss, _ = stiff_single_wt_fss()
    unstable = dataclasses.replace(fss, a_s=-fss.a_s)
    modal = eig_biorthogonal(unstable.a_s)
    resp = simulate_linear(unstable, modal, SagSpec(0.05, 0.0), horizon=0.05,
                           dt=1e-3, shares=per_wt(unstable))
    assert np.all(np.isfinite(resp.u_dc))
    assert modal.unstable


def solved_models(name: str) -> list[tuple[FarmDescription, FarmModel]]:
    """(farm, solved model) pairs of one parity case: for cases a-d the
    detailed model and the DEMs at C = 1 and 3, otherwise the farm's own."""
    if name in ("a", "b", "c", "d"):
        s = solved_case(name)
        dems = [s.dem(c)[2] for c in (1, 3)]
        return [(s.farm, s.model)] + [(dem.farm, dem.model) for dem in dems]
    if name == "ladder":
        farm = ladder_farm(10, 10, 7)
    elif name == "ladder300_0":
        # the first seed-7 ladder300 farm (1200 states)
        farm = ladder_farm(10, 30, (7, 0))
    else:
        farm = load_farm(ROOT / "farms" / f"{name}.json")
    return [(farm, SolvedFarm(farm).model)]


def parity_models(name: str,
                  ) -> list[tuple[FarmStateSpace, ModalSolution]]:
    """(state space, modal solution) pairs of `solved_models(name)`, each
    state space with its state matrix, which the solved model does not
    keep."""
    return [(dataclasses.replace(
                model.fss, a_s=state_matrix(farm, solve_powerflow(farm))),
             model.modal)
            for farm, model in solved_models(name)]


@pytest.mark.filterwarnings("ignore:3 mode clusters vs 2 WT groups")
@pytest.mark.parametrize("name", ["a", "b", "c", "d", "zero_network",
                                  "single_wt", "ladder"])
def test_modal_form_matches_exact_stepper(name):
    # cases a-d: the detailed model and the DEM at C = 1 and 3; the ladder
    # is the benchmark's seed-7 10 x 10 farm (400 states)
    sag = SagSpec(0.05, 0.1)
    for fss, modal in parity_models(name):
        resp = simulate_linear(fss, modal, sag, horizon=2.0, dt=1e-3,
                               shares=per_wt(fss))
        ref = stepper_response(fss, sag, horizon=2.0, dt=1e-3)
        assert max_relative_difference(resp, ref) <= 1e-11


def assert_matches_direct(resp: LinearResponse, ref: LinearResponse):
    """Each row of `resp` within 1e-12 of the largest |value| of its row in
    `ref` wherever `ref` is finite, and finite there."""
    assert np.array_equal(resp.t, ref.t)
    got = np.vstack([resp.u_dc, resp.poi_p])
    want = np.vstack([ref.u_dc, ref.poi_p])
    assert got.shape == want.shape
    for row, (y, y_ref) in enumerate(zip(got, want)):
        finite = np.isfinite(y_ref)
        assert np.all(np.isfinite(y[finite])), row
        if finite.any():
            scale = np.abs(y_ref[finite]).max()
            assert np.abs(y - y_ref)[finite].max() <= 1e-12 * scale, row


@pytest.mark.filterwarnings("ignore:3 mode clusters vs 2 WT groups")
@pytest.mark.parametrize("name", ["a", "b", "c", "d", "zero_network",
                                  "single_wt", "ladder", "ladder300_0"])
def test_anchored_time_factors_match_direct_expm1(name):
    # cases a-d: the detailed model and the DEM at C = 1 and 3; the ladders
    # are the benchmark's seed-7 10 x 10 farm (400 states) and its first
    # ladder300 farm (1200 states)
    sag = SagSpec(0.05, 0.1)
    for _, model in solved_models(name):
        fss, modal = model.fss, model.modal
        assert_matches_direct(
            simulate_linear(fss, modal, sag, 2.0, 1e-3, per_wt(fss)),
            simulate_linear_direct(fss, modal, sag, 2.0, 1e-3, per_wt(fss)))


@pytest.mark.parametrize("steps, on", [
    (333, 0), (333, 333), (333, 170), (7, 0), (7, 7), (_STEPS, 0),
    (2 * _STEPS + _ANCHOR + 3, _ANCHOR - 1), (0, 0)])
def test_anchored_time_factors_on_ragged_horizons(case_b, steps, on):
    # step counts that are no multiple of _ANCHOR or _STEPS, one shorter
    # than an anchor span, and t_on at the first and the last grid time
    dt = 1e-3
    sag = SagSpec(0.05, on * dt)
    for _, model in solved_models("b"):
        fss, modal = model.fss, model.modal
        resp = simulate_linear(fss, modal, sag, steps * dt, dt, per_wt(fss))
        ref = simulate_linear_direct(fss, modal, sag, steps * dt, dt,
                                     per_wt(fss))
        assert len(resp.t) == steps + 1
        assert np.all(resp.poi_p[:on] == 0.0)
        assert resp.poi_p[on] != 0.0
        assert_matches_direct(resp, ref)


def spectrum_model(reals: list[float], uppers: list[complex], seed: int,
                   ) -> tuple[FarmStateSpace, ModalSolution]:
    """A state space in a random real basis whose modes are `reals` and the
    pairs `uppers` with their conjugates; every state is a u_dc row."""
    lam = [complex(r) for r in reals]
    conj_of = list(range(len(lam)))
    for z in uppers:
        k = len(lam)
        lam += [z.conjugate(), z]
        conj_of += [k + 1, k]
    n = len(lam)
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    pair_of = np.where(np.array(conj_of) == np.arange(n), -1, conj_of)
    modal = ModalSolution(eigenvalues=np.array(lam), basis=basis,
                          inverse=np.linalg.inv(basis),
                          conj_of=np.array(conj_of), pair_of=pair_of)
    ids = tuple(f"wt{k:02d}" for k in range(n))
    fss = FarmStateSpace(a_s=None, b_s=rng.standard_normal((n, 2)),
                         labels=tuple((wt, "u_dc") for wt in ids),
                         wt_order=ids, c_p=rng.standard_normal(n),
                         d_p=rng.standard_normal(2))
    return fss, modal


# |Im lam| T stays below 1e3: beyond it the phase lam t itself is rounded
# by more than the tolerance, in the oracle as in the anchored fill
REAL_MODES = st.one_of(
    st.just(0.0),
    st.floats(-1e-12, 1e-12),
    st.floats(-1e12, -1e6),
    st.floats(-1e3, 0.0),
    st.floats(1e-3, 20.0))
PAIR_RE = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12),
                    st.floats(-1e12, -1e6), st.floats(-1e3, 0.0),
                    st.floats(1e-3, 20.0))
PAIR_IM = st.one_of(st.floats(5e-324, 1e-12), st.floats(1e-3, 150.0))


@given(st.lists(REAL_MODES, max_size=4),
       st.lists(st.builds(complex, PAIR_RE, PAIR_IM), max_size=4),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-2]),
       st.integers(0, 600), st.floats(0.0, 1.0))
@example([0.0, 1e-13, -1e7, 5.0], [50j, -1e-13 + 4e-13j, -2e6 + 3e4j,
                                   3.0 + 20j], 1, 1e-3, 2001, 0.05)
# growth that overflows before the horizon ends
@example([0.0, 300.0], [250.0 + 100j, -1.0 + 10j], 2, 1e-2, 600, 0.0)
def test_anchored_time_factors_on_any_spectrum(reals, uppers, seed, dt,
                                               steps, on):
    if not reals and not uppers:
        return
    fss, modal = spectrum_model(reals, uppers, seed)
    sag = SagSpec(0.05, round(on * steps) * dt)
    args = (fss, modal, sag, steps * dt, dt, per_wt(fss))
    # past an overflow both sides meet inf - inf in their products
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_direct(simulate_linear(*args),
                              simulate_linear_direct(*args))


def test_sag_switches_on_at_the_first_grid_time_past_t_start():
    fss, modal, _ = stiff_single_wt_modal()
    sag = SagSpec(0.05, 0.1005)          # between grid times 0.100 and 0.101
    resp = simulate_linear(fss, modal, sag, horizon=0.2, dt=1e-3,
                           shares=per_wt(fss))
    ref = stepper_response(fss, sag, horizon=0.2, dt=1e-3)
    assert np.all(resp.u_dc[0, :102] == 0.0)
    assert resp.u_dc[0, 102] != 0.0
    assert max_relative_difference(resp, ref) <= 1e-11
    late = simulate_linear(fss, modal, SagSpec(0.05, 0.5), horizon=0.2,
                           dt=1e-3, shares=per_wt(fss))
    assert np.all(late.poi_p == 0.0)


def near_defective_model(seed: int, lam: float, delta: float,
                         ) -> FarmStateSpace:
    """One-WT state space whose first two modes nearly coalesce.

    The block [[lam, 1], [delta, lam]] has modes lam +- sqrt(delta): a close
    real pair for delta > 0, a slowly beating complex pair for delta < 0.
    It sits beside a damped pair at -5 +- 40j, and a similarity with
    cond_2 <= 3 mixes the states.
    """
    rng = np.random.default_rng(seed)
    j = np.zeros((4, 4))
    j[:2, :2] = [[lam, 1.0], [delta, lam]]
    j[2:, 2:] = [[-5.0, 40.0], [-40.0, -5.0]]
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = q * rng.uniform(1.0, 3.0, 4)
    b_s = rng.standard_normal((4, 2))
    # the WT's current map c and a POI impedance z at u0 = (1, 0) and
    # i0 = (0.9, 0.1) give the power row (u0 + z^T i0)^T c
    c = rng.standard_normal((2, 4))
    i0 = np.array([0.9, 0.1])
    return FarmStateSpace(
        a_s=s @ j @ np.linalg.inv(s), b_s=b_s,
        labels=tuple(("wt01", kind) for kind in STATE_KINDS),
        wt_order=("wt01",),
        c_p=(np.array([1.0, 0.0]) + rng.standard_normal((2, 2)).T @ i0) @ c,
        d_p=i0)


@given(st.integers(0, 2**32 - 1), st.floats(-50.0, -1.0),
       st.floats(-14.0, -1.0), st.booleans())
@example(907949419, -1.1, -9.8, False)
# cond(U) = 2.5e14: past the gate, so the basis is refused
@example(1452157, -40.71114985133396, -14.0, False)
def test_modal_form_on_near_defective_matrices(seed, lam, log_delta, real):
    # the difference grows with the conditioning of the eigenvector basis,
    # which ||U||_F ||V||_F bounds; over 4000 seeded draws it stayed below
    # 31 eps times that bound.  The first example has a complex pair at
    # Im = +-1.3e-5; doubling the upper member's weight there, instead of
    # adding its partner's, exceeds the asserted bound 8.5-fold.
    delta = (1.0 if real else -1.0) * 10.0**log_delta
    fss = near_defective_model(seed, lam, delta)
    # cond_2 of eig's unit vectors U, equal to cond_2(R D) in exact arithmetic;
    # the gate's own SVD of R D may differ from it in the fourth digit
    cond = np.linalg.cond(np.linalg.eig(fss.a_s)[1])
    try:
        modal = eig_biorthogonal(fss.a_s)
    except DefectiveMatrixError:
        assert cond > _COND_MAX * (1 - 1e-3)
        return
    assert cond <= _COND_MAX * (1 + 1e-3)
    sag = SagSpec(0.05, 0.1)
    resp = simulate_linear(fss, modal, sag, horizon=0.5, dt=1e-3,
                           shares=per_wt(fss))
    ref = stepper_response(fss, sag, horizon=0.5, dt=1e-3)
    u, v = complex_basis(modal)
    cert = np.linalg.norm(u) * np.linalg.norm(v)
    assert max_relative_difference(resp, ref) \
        <= 1e3 * np.finfo(float).eps * cert


def test_cli_import_leaves_scipy_unloaded():
    proc = run_python_bounded(
        ["-c", "import sys, wfdem.cli; print(sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'scipy'))"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    fss = dem.model.fss
    resp = simulate_linear(fss, dem.model.modal, SagSpec(0.05, 0.1), 0.5,
                           1e-3, shares=per_wt(fss))
    # compare the DEM against itself, row r standing for group r
    out = compare_responses(resp, resp, tuple(dem.members))
    assert list(out) == ["poi_p"] + [f"group{g}_u_dc" for g in dem.members]
    assert max(out.values()) == 0.0
    assert not dem.model.modal.unstable
    # a group id per row, no fewer
    with pytest.raises(ValueError):
        compare_responses(resp, resp, tuple(dem.members)[:-1])


def test_compare_responses_grid_mismatch_rejected():
    fss, modal, _ = stiff_single_wt_modal()
    a = simulate_linear(fss, modal, SagSpec(0.05, 0.1), 0.2, 1e-3,
                        shares=per_wt(fss))
    b = simulate_linear(fss, modal, SagSpec(0.05, 0.1), 0.2, 2e-3,
                        shares=per_wt(fss))
    with pytest.raises(ValueError, match="time grid"):
        compare_responses(a, b, (0,))


def test_compare_responses_rejects_a_grid_within_allclose():
    # dt = 1.000001e-3 over 2 s gives 2001 samples, as dt = 1e-3 does, each
    # up to 2e-6 s off: within np.allclose's rtol 1e-5, yet misaligned
    fss, modal, _ = stiff_single_wt_modal()
    sag = SagSpec(0.05, 0.1)
    a = simulate_linear(fss, modal, sag, 2.0, 1e-3, shares=per_wt(fss))
    b = simulate_linear(fss, modal, sag, 2.0, 1.000001e-3,
                        shares=per_wt(fss))
    assert a.t.shape == b.t.shape and np.allclose(a.t, b.t)
    with pytest.raises(ValueError, match="time grid"):
        compare_responses(a, b, (0,))


@pytest.mark.filterwarnings("ignore:3 mode clusters vs 2 WT groups")
@pytest.mark.parametrize("farm, clusters", [
    ("case_b", 3), ("case_c", 3), ("case_d", 3), ("auto_sweep100_0", None)])
def test_group_rows_are_capacity_weighted_member_means(tmp_path, farm,
                                                       clusters):
    if farm.startswith("case_"):
        path = ROOT / "farms" / f"{farm}.json"
    else:
        # the benchmark's first seed-7 auto_sweep100 farm: many groups
        path = tmp_path / f"{farm}.json"
        save_farm(ladder_farm(10, 10, (7, 0), planted=False), path)
    state = run_pipeline(RunConfig(farm_path=path, out_dir=tmp_path / "out",
                                   clusters=clusters), upto="aggregate")
    dem, fss, modal = state.dem, state.model.fss, state.model.modal
    sag = SagSpec(0.05, 0.1)
    rows = simulate_linear(fss, modal, sag, 2.0, 1e-3, dem.shares).u_dc
    per = simulate_linear(fss, modal, sag, 2.0, 1e-3, per_wt(fss)).u_dc
    want = group_means_by_member(state.farm, dem.members, per)
    assert rows.shape == want.shape == (len(dem.members), 2001)
    scale = np.abs(want).max(axis=1)
    assert np.all(scale > 0)
    assert np.all(np.abs(rows - want).max(axis=1) <= 1e-13 * scale)

    # the DEM's identity shares: row r is machine r simulated alone
    dem_fss, dem_modal = dem.model.fss, dem.model.modal
    machines = simulate_linear(dem_fss, dem_modal, sag, 2.0, 1e-3,
                               per_wt(dem_fss)).u_dc
    for r, one_hot in enumerate(per_wt(dem_fss)):
        alone = simulate_linear(dem_fss, dem_modal, sag, 2.0, 1e-3,
                                one_hot[None]).u_dc
        assert np.array_equal(machines[r], alone[0])


def rescored_from_responses_npz(out) -> dict:
    """Every NRMSE recomputed from responses.npz, as `nrmse` forms it."""
    with np.load(out / "responses.npz", allow_pickle=False) as npz:
        col = {name: npz[name] for name in npz.files}
    groups = [name[len("dem_u_dc_group"):] for name in col
              if name.startswith("dem_u_dc_group")]
    assert list(col) == ["t", "detailed_poi_p", "dem_poi_p"] + [
        f"{side}_u_dc_group{g}" for g in groups
        for side in ("detailed", "dem")]
    assert all(a.dtype == np.float64 and a.shape == col["t"].shape
               for a in col.values())
    signals = {"poi_p": ("detailed_poi_p", "dem_poi_p")}
    signals.update({f"group{g}_u_dc": (f"detailed_u_dc_group{g}",
                                       f"dem_u_dc_group{g}")
                    for g in groups})
    value = {}
    for name, (ref, hat) in signals.items():
        y, y_hat = col[ref], col[hat]
        rmse = float(np.sqrt(np.mean((y - y_hat) ** 2)))
        span = float(y.max() - y.min())
        value[name] = rmse if span == 0.0 else rmse / span
    return value


@pytest.mark.filterwarnings("ignore:3 mode clusters vs 2 WT groups")
@pytest.mark.parametrize("farm, clusters", [
    ("case_b", 3), ("case_c", 3), ("case_d", 3), ("auto_sweep100_0", None)])
def test_report_nrmse_is_recomputed_from_responses_csv(tmp_path, farm,
                                                       clusters):
    if farm.startswith("case_"):
        path = ROOT / "farms" / f"{farm}.json"
    else:
        # the benchmark's first seed-7 auto_sweep100 farm
        path = tmp_path / f"{farm}.json"
        save_farm(ladder_farm(10, 10, (7, 0), planted=False), path)
    out = tmp_path / "out"
    run_pipeline(RunConfig(farm_path=path, out_dir=out, clusters=clusters))
    report = json.loads((out / "report.json").read_text())
    # the arrays are exact, so each NRMSE is the report's to the last bit
    assert rescored_from_responses_npz(out) == report["nrmse"]
    # the POI power plot redraws from the arrays byte for byte
    svg = (out / "responses.svg").read_bytes()
    emit_plot(out, "responses")
    assert (out / "responses.svg").read_bytes() == svg


# ---------------------------------------------------------------------------
# linearization check


def test_linearization_check_zero_sag_is_zero():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    assert linearization_check(wt, BASES, GridThevenin(0.001, 0.01),
                               sag_fraction=0.0, horizon=0.3) == 0.0


def test_linearization_check_large_sag_flagged():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    nrmse_u_dc = linearization_check(wt, BASES, GridThevenin(0.001, 0.01),
                                     sag_fraction=0.10)
    assert nrmse_u_dc > 0.005      # visible nonlinear departure
