"""Eigendecomposition, participation factors, and concern-mode selection.

Oracles: closed-form roots for 2x2 cases, the matrix exponential for the
zero-input response reconstruction, the analytic stiff-grid mode for the
decoupled farm, the eigensolution in complex arithmetic, the dense MPF
table of every state and mode, and np.linalg's eig and inv for the LAPACK
routines that `wfdem._lapack` calls directly.
"""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.linalg import expm

from helpers import (ROOT, SolvedFarm, ladder_farm, state_matrix,
                     terminal_voltages, traced_peak)
from oracles import (complex_basis, complex_eig_biorthogonal,
                     exact_conjugates, full_mpf, loop_participation_dense,
                     stiff_grid_mode)
from wfdem import _lapack, modal
from wfdem.assembly import linear_model
from wfdem.cases import identical_zero_network_farm
from wfdem.farm import load_farm
from wfdem.gridcsv import read_grid
from wfdem.modal import (_PAIR_RTOL, _ROW_BLOCK, DefectiveMatrixError,
                         ModalSolution, eig_biorthogonal, loop_participation,
                         select_concern_modes, solve_modes, write_modes_csv,
                         write_mpf_csv)
from wfdem.powerflow import solve_powerflow


def solved_zero_farm(n=5, p=0.8):
    farm = identical_zero_network_farm(n, p_m0=p)
    sol = solve_powerflow(farm)
    return farm, sol, solve_modes(farm, sol)


# ---------------------------------------------------------------------------


def test_diagonal_matrix():
    sol = eig_biorthogonal(np.diag([-1.0, -2.0]))
    assert np.allclose(sol.eigenvalues, [-2.0, -1.0])     # sorted by Re
    # each mode participates only in its own state: f is the permutation
    # aligning sorted modes with their diagonal entries
    assert np.allclose(full_mpf(sol), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert np.allclose(full_mpf(sol).sum(axis=0), 1.0, atol=1e-14)
    assert np.all(sol.pair_of == -1)


def test_oscillatory_2x2():
    a = np.array([[0.0, 1.0], [-100.0, -2.0]])
    sol = eig_biorthogonal(a)
    roots = np.roots([1.0, 2.0, 100.0])       # closed-form quadratic oracle
    assert min(abs(sol.eigenvalues[0] - r) for r in roots) < 1e-10
    assert abs(sol.eigenvalues[0] - (-1 - 9.9498743710662j)) < 1e-9 \
        or abs(sol.eigenvalues[0] - (-1 + 9.9498743710662j)) < 1e-9
    assert sol.pair_of[0] == 1 and sol.pair_of[1] == 0
    assert np.allclose(full_mpf(sol).sum(axis=0), 1.0, atol=1e-12)


def test_residuals_and_biorthonormality_on_farm_matrix(case_a):
    a = state_matrix(case_a.farm, case_a.sol)
    sol = case_a.modal
    norm_a = np.linalg.norm(a, 2)
    u, v = complex_basis(sol)
    for i in range(sol.n_modes):
        res = np.linalg.norm(a @ u[:, i] - sol.eigenvalues[i] * u[:, i])
        assert res < 1e-8 * norm_a
    assert np.abs(v @ u - np.eye(sol.n_modes)).max() < 1e-8
    assert np.abs(full_mpf(sol).sum(axis=0) - 1.0).max() < 1e-8


def test_participation_matrix_definition(case_a):
    sol = case_a.modal
    every = np.arange(sol.n_modes)
    u, v = complex_basis(sol)
    assert np.array_equal(sol.participation(every, every), v.T * u)
    k, i = 7, 12
    assert sol.participation([k], [i])[0, 0] == v[i, k] * u[k, i]


def bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


index_lists = st.lists(st.integers(0, 131), max_size=40)
# rows reaching into a third row block, whose tail holds one row
SPANNING = [k % 132 for k in range(2 * _ROW_BLOCK + 1)]


@given(rows=index_lists | st.lists(st.integers(0, 131),
                                   min_size=_ROW_BLOCK + 1,
                                   max_size=3 * _ROW_BLOCK),
       cols=index_lists)
@example(rows=[], cols=[])
@example(rows=[5, 5, 0], cols=[])
@example(rows=[], cols=[131, 0, 131])
@example(rows=list(range(132)), cols=list(range(132)))
@example(rows=list(range(131, -1, -1)) * 2, cols=list(range(0, 132, 3)))
@example(rows=SPANNING, cols=[7])
@example(rows=SPANNING[::-1], cols=[131, 0])
@example(rows=SPANNING, cols=[])
@example(rows=SPANNING[:2 * _ROW_BLOCK], cols=[64])
def test_participation_slices_the_full_table_bit_for_bit(case_b, rows, cols):
    """Any rows x cols block, repeats and empty sets included, holds the
    full table's entries to the last bit, also where its rows span
    several of the row blocks `participation` fills and the last block is
    1 x 1.

    numpy multiplies a block under its 8192-element buffer through
    contiguous copies whatever the layout, so only the larger examples
    can tell a strided product from the full table's contiguous one; a
    1 x 1 product in place would take numpy's scalar loop, which can round
    differently.
    """
    sol = case_b.modal
    block = sol.participation(rows, cols)
    want = full_mpf(sol)[np.ix_(np.array(rows, dtype=int),
                                np.array(cols, dtype=int))]
    assert block.shape == (len(rows), len(cols))
    assert np.array_equal(block, want)
    assert np.array_equal(bits(block), bits(want))


def test_repeated_eigenvalues_stay_biorthonormal():
    _, _, model = solved_zero_farm(6)
    sol = model.modal
    u, v = complex_basis(sol)
    assert np.abs(v @ u - np.eye(sol.n_modes)).max() < 1e-8
    assert np.abs(full_mpf(sol).sum(axis=0) - 1.0).max() < 1e-8


def test_conjugate_modes_carry_conjugate_mpfs(case_b):
    sol = case_b.modal
    mpf = full_mpf(sol)
    for i in range(sol.n_modes):
        j = sol.pair_of[i]
        if j >= 0:
            assert np.abs(mpf[:, i] - np.conj(mpf[:, j])).max() < 1e-8


def test_decomposition_is_deterministic(case_a):
    a = state_matrix(case_a.farm, case_a.sol)
    s1 = eig_biorthogonal(a)
    s2 = eig_biorthogonal(a)
    assert np.array_equal(s1.basis, s2.basis)
    assert np.array_equal(s1.inverse, s2.inverse)


def test_zero_input_response_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    a -= 6.0 * np.eye(8)           # keep it comfortably stable
    sol = eig_biorthogonal(a)
    u, v = complex_basis(sol)
    x0 = rng.normal(size=8)
    for t in (0.0, 0.05, 0.3, 1.0):
        modal_sum = (u * np.exp(sol.eigenvalues * t)) @ (v @ x0)
        direct = expm(a * t) @ x0
        assert np.abs(modal_sum.real - direct).max() < 1e-8
        assert np.abs(modal_sum.imag).max() < 1e-8


def test_zero_input_reconstruction_on_concern_states(case_a):
    # initial condition supported on the DC-voltage states only
    sol = case_a.modal
    a = state_matrix(case_a.farm, case_a.sol)
    rng = np.random.default_rng(11)
    x0 = np.zeros(a.shape[0])
    rows = case_a.fss.kind_rows(("u_dc",))
    x0[rows] = rng.normal(size=len(rows))
    t = 0.2
    u, v = complex_basis(sol)
    modal_sum = (u * np.exp(sol.eigenvalues * t)) @ (v @ x0)
    direct = expm(a * t) @ x0
    assert np.abs(modal_sum.real - direct).max() < 1e-8


@pytest.mark.parametrize("abscissa,unstable", [(-1.0, False), (0.0, False),
                                                (1e-9, False), (2e-9, True),
                                                (3.0, True)])
def test_unstable_flag_uses_the_spectral_abscissa(abscissa, unstable):
    sol = eig_biorthogonal(np.diag([-5.0, abscissa, -2.0]))
    assert sol.unstable is unstable


def test_defective_matrix_raises():
    with pytest.raises(DefectiveMatrixError):
        eig_biorthogonal(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_two_wt_farm_has_equal_udc_participation():
    # identical WTs on one shared bus: neither machine is distinguished, so
    # each DVC mode must load both DC-voltage states equally in magnitude
    from wfdem.farm import (Branch, FarmDescription, GridThevenin,
                            PerUnitBases, WtParams)
    wts = tuple((WtParams(id=f"wt0{k}", p_m0=0.8, c_dc=0.09, u_dc0=1.0,
                          kp_dvc=1.0, ki_dvc=300.0), "shared")
                for k in (1, 2))
    farm = FarmDescription(
        bases=PerUnitBases(1.5, 35.0), buses=("poi", "shared"), poi="poi",
        branches=(Branch("poi", "shared", 2.0, 0.1153, 1.05e-3),),
        wts=wts, grid=GridThevenin(0.001, 0.01))
    farm.validate()
    model = solve_modes(farm, solve_powerflow(farm))
    r1, r2 = model.fss.kind_rows(("u_dc",))
    mpf = full_mpf(model.modal)
    for m in model.concern.mode_indices:
        f1, f2 = abs(mpf[r1, m]), abs(mpf[r2, m])
        assert abs(f1 - f2) < 1e-9 * max(f1, f2)


# ---------------------------------------------------------------------------
# selection


def test_decoupled_farm_selects_stiff_grid_modes():
    farm, sol, model = solved_zero_farm(5, p=0.8)
    concern = model.concern
    wt, u = terminal_voltages(farm, sol)[0]
    lam_ref = stiff_grid_mode(wt, abs(u), farm.bases)[0]
    rel = np.abs(concern.eigenvalues - lam_ref) / abs(lam_ref)
    assert rel.max() < 1e-6


def test_pll_filter_selects_disjoint_band(case_a):
    dvc = case_a.concern
    pll = select_concern_modes(
        case_a.modal, case_a.fss.kind_rows(("pll_angle", "pll_int")), 33)
    assert set(dvc.mode_indices).isdisjoint(pll.mode_indices)
    assert pll.eigenvalues.imag.max() < dvc.eigenvalues.imag.min()


def test_selection_invariant_to_state_reordering(case_a):
    a = state_matrix(case_a.farm, case_a.sol)
    labels = case_a.fss.labels
    n = a.shape[0]
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    # state k of the permuted matrix is state perm[k] of the original
    rows_p = [k for k in range(n) if labels[perm[k]][1] == "u_dc"]
    concern_p = select_concern_modes(eig_biorthogonal(p @ a @ p.T), rows_p,
                                     33)
    ref = np.sort_complex(case_a.concern.eigenvalues)
    got = np.sort_complex(concern_p.eigenvalues)
    assert np.abs(ref - got).max() < 1e-8


def test_too_few_oscillatory_pairs_raises():
    sol = eig_biorthogonal(np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError, match="oscillatory"):
        select_concern_modes(sol, [0, 1], 1)


def test_band_mixing_warns():
    # two oscillators an order of magnitude apart, same state kind
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -4.0        # ~2 rad/s
    a[2, 3], a[3, 2] = 1.0, -40000.0    # ~200 rad/s
    sol = eig_biorthogonal(a)
    with pytest.warns(UserWarning, match="median frequency"):
        select_concern_modes(sol, [0, 2], 2)      # the two u_dc states


def load_npz(path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def test_modes_and_mpf_csv(tmp_path, case_a):
    write_modes_csv(case_a.model, tmp_path / "modes.csv")
    write_mpf_csv(case_a.model, tmp_path / "mpf.npz")
    header, _, modes = read_grid(tmp_path / "modes.csv")
    assert header == ["re", "im", "freq_hz", "damping_ratio", "pair_id",
                      "selected", "dvc_share", "dominant_wt"]
    assert modes.shape == (132, 8)
    assert modes[:, 5].sum() == 33
    mpf = load_npz(tmp_path / "mpf.npz")
    assert list(mpf) == ["mpf", "state", "mode"]
    assert mpf["mpf"].dtype == np.complex128 and mpf["mpf"].shape == (33, 33)
    assert mpf["state"].shape == (33,) and mpf["mode"].shape == (33,)
    assert mpf["mode"].dtype == np.int64


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_mpf_csv_is_the_full_grid_cut_to_the_concern_modes(tmp_path, s):
    write_modes_csv(s.model, tmp_path / "modes.csv")
    write_mpf_csv(s.model, tmp_path / "mpf.npz")
    mpf = load_npz(tmp_path / "mpf.npz")

    # the columns join with the selected rows of modes.csv, in concern order
    header, modes = read_csv(tmp_path / "modes.csv")
    selected = [i for i, row in enumerate(modes)
                if row[header.index("selected")] == "1"]
    assert mpf["mode"].tolist() == list(s.concern.mode_indices)
    assert sorted(mpf["mode"].tolist()) == selected
    # one u_dc row per WT, in farm order
    assert mpf["state"].tolist() == [f"{wt}:u_dc" for wt in s.fss.wt_order]

    # each kept row and column bit for bit as the full table's
    rows = [s.fss.labels.index((wt, "u_dc")) for wt in s.fss.wt_order]
    want = np.ascontiguousarray(full_mpf(s.modal)[np.ix_(rows, mpf["mode"])])
    assert mpf["mpf"].shape == (len(s.fss.wt_order), len(selected))
    assert mpf["mpf"].tobytes() == want.tobytes()


@pytest.mark.parametrize("case", "abcd")
def test_mpf_csv_columns_match_the_full_grid_on_study_cases(
        request, tmp_path, case):
    assert_mpf_csv_is_the_full_grid_cut_to_the_concern_modes(
        tmp_path, request.getfixturevalue(f"case_{case}"))


def test_mpf_csv_columns_match_the_full_grid_on_ladder300(tmp_path):
    # the benchmark's first seed-7 ladder300 farm: 1200 states
    assert_mpf_csv_is_the_full_grid_cut_to_the_concern_modes(
        tmp_path, SolvedFarm(ladder_farm(10, 30, (7, 0))))


@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c", "case_d",
                                  "zero_network"])
def test_loop_participation_matches_the_dense_table(name):
    s = SolvedFarm(load_farm(ROOT / "farms" / f"{name}.json"))
    dvc_share, dominant = loop_participation(s.fss, s.modal)
    want_share, want_dominant = loop_participation_dense(s.fss, s.modal)
    assert dominant.dtype == np.int64
    assert np.abs(dvc_share - want_share).max() <= 1e-12
    assert np.array_equal(dominant, want_dominant)


def case_b_with(wt_id: str, **params):
    """`farms/case_b.json` with the named WT's parameters replaced."""
    farm = load_farm(ROOT / "farms" / "case_b.json")
    return dataclasses.replace(farm, wts=tuple(
        (dataclasses.replace(wt, **params) if wt.id == wt_id else wt, bus)
        for wt, bus in farm.wts))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8")
@pytest.mark.parametrize("wt_id,params", [
    pytest.param("wt05", {"s_mva": 1e-12}, id="wt05_s_mva"),
    pytest.param("wt01", {"ki_dvc": 20.0}, id="wt01_ki_dvc")])
def test_every_concern_mode_is_a_dvc_mode(tmp_path, wt_id, params):
    """A WT with no oscillatory DVC pair lends its concern slot to a PLL
    pair, -29.96 + 22.38j on both farms, whose DVC share is below 1e-3."""
    s = SolvedFarm(case_b_with(wt_id, **params))
    write_modes_csv(s.model, tmp_path / "modes.csv")
    header, _, modes = read_grid(tmp_path / "modes.csv")
    selected = modes[modes[:, header.index("selected")] == 1]
    assert len(selected) == 33
    assert np.all(selected[:, header.index("dvc_share")] > 0.5)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda request, c=c: request.getfixturevalue(f"case_{c}"),
                   id=f"case_{c}") for c in "abcd"),
    pytest.param(lambda request: SolvedFarm(ladder_farm(10, 10, 7)),
                 id="ladder10x10")])
def test_representatives_are_the_upper_pair_members(request, make):
    sol = make(request).modal
    loop = np.array([i for i, lam in enumerate(sol.eigenvalues)
                     if sol.pair_of[i] >= 0 and lam.imag > 0], dtype=int)
    reps = sol.representatives()
    assert reps.dtype == loop.dtype
    assert np.array_equal(reps, loop)


# ---------------------------------------------------------------------------
# SVD reference: cond(U) gates the basis and ||A||_2 scales the pairing


def greedy_pair_conjugates(lam, scale):
    """One Python `min` per upper-half mode over the unpaired lower-half
    modes, scanned in ascending index order, so ties go to the lowest."""
    n = len(lam)
    pair_of = np.full(n, -1, dtype=int)
    unmatched = [i for i in range(n) if abs(lam[i].imag) > _PAIR_RTOL * scale]
    pos = [i for i in unmatched if lam[i].imag > 0]
    neg = set(i for i in unmatched if lam[i].imag < 0)
    for i in pos:
        j = min(sorted(neg), key=lambda j: abs(lam[j] - np.conj(lam[i])),
                default=None)
        if j is None or abs(lam[j] - np.conj(lam[i])) > 1e-6 * scale:
            raise DefectiveMatrixError(
                f"no conjugate partner for eigenvalue {lam[i]:.6g}")
        pair_of[i], pair_of[j] = j, i
        neg.discard(j)
    return pair_of


def reference_eig_biorthogonal(a_s):
    """The real basis cut from `eig`'s sorted complex basis U, gated by
    cond(U) and paired by the greedy loop; the eigenvalues are complex."""
    a_s = np.asarray(a_s, dtype=float)
    lam, u = np.linalg.eig(a_s)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order].astype(complex)
    u = u[:, order]
    cond = np.linalg.cond(u)
    if not np.isfinite(cond) or cond > 1e12:
        raise DefectiveMatrixError(
            f"eigenvector basis is ill-conditioned (cond = {cond:.3e}); "
            "matrix is defective within working precision")
    pair_of = greedy_pair_conjugates(
        lam, max(1.0, float(np.linalg.norm(a_s, ord=2))))
    conj_of = exact_conjugates(lam)
    up = np.flatnonzero(lam.imag > 0)
    r = np.array(u.real)
    r[:, conj_of[up]] = u.imag[:, up]
    return ModalSolution(eigenvalues=lam, basis=r, inverse=np.linalg.inv(r),
                         conj_of=conj_of, pair_of=pair_of)


def outcome(fn, a):
    try:
        return fn(a)
    except DefectiveMatrixError as exc:
        return str(exc)


def assert_same_solution(got, ref):
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    for field in ("eigenvalues", "basis", "inverse", "conj_of", "pair_of"):
        x, y = getattr(got, field), getattr(ref, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field
    every = np.arange(got.n_modes)
    assert np.array_equal(got.participation(every, every),
                          ref.participation(every, every)), "mpf"


def assert_matches_reference(a):
    assert_same_solution(outcome(eig_biorthogonal, a),
                         outcome(reference_eig_biorthogonal, a))


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
def test_matches_svd_reference_on_study_cases(request, case):
    s = request.getfixturevalue(f"case_{case}")
    a = state_matrix(s.farm, s.sol)
    assert_same_solution(s.modal, reference_eig_biorthogonal(a))


@pytest.mark.parametrize("farm", [
    pytest.param(lambda: load_farm(ROOT / "farms" / "zero_network.json"),
                 id="zero_network"),
    pytest.param(lambda: ladder_farm(10, 10, 7), id="ladder10x10"),
])
def test_matches_svd_reference_on_farms(farm):
    s = SolvedFarm(farm())
    assert_matches_reference(state_matrix(s.farm, s.sol))


@st.composite
def stable_matrices(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gain = 10.0 ** draw(st.integers(-3, 4))
    a = gain * rng.normal(size=(n, n))
    return a - (np.abs(np.linalg.eigvals(a)).max() + gain) * np.eye(n)


@given(stable_matrices())
def test_matches_svd_reference_on_random_matrices(a):
    assert_matches_reference(a)


@given(stable_matrices(), st.integers(2, 4))
def test_matches_svd_reference_on_block_diagonal_copies(block, copies):
    # repeated eigenvalues, each as often as there are copies
    assert_matches_reference(np.kron(np.eye(copies), block))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["below", "between",
                                                   "above"]),
       st.floats(0.01, 0.99))
@example(1, "between", 0.5)
def test_matches_svd_reference_between_the_pairing_thresholds(seed, where,
                                                              frac):
    # an oscillator with |Im lam| = w below 1e-7 ||A||_2, between it and
    # 1e-7 ||A||_F (only the exact norm decides) or above both
    rng = np.random.default_rng(seed)
    g = 50.0 * rng.normal(size=(8, 8))
    a = np.zeros((10, 10))
    a[:8, :8] = g - (np.abs(np.linalg.eigvals(g)).max() + 1.0) * np.eye(8)
    a[8, 8] = a[9, 9] = -1.0
    norm2, fro = np.linalg.norm(a, 2), np.linalg.norm(a)
    lo, hi = {"below": (0.5 * norm2, norm2), "between": (norm2, fro),
              "above": (fro, 2.0 * fro)}[where]
    w = _PAIR_RTOL * (lo + frac * (hi - lo))
    a[8, 9], a[9, 8] = w, -w
    norm2, fro = np.linalg.norm(a, 2), np.linalg.norm(a)
    assume((w <= _PAIR_RTOL * norm2) == (where == "below"))
    assume((w <= _PAIR_RTOL * fro) == (where != "above"))
    got = eig_biorthogonal(a)
    assert_same_solution(got, reference_eig_biorthogonal(a))
    # the modes -1 +- jw, at distance w from -1
    oscillator = np.flatnonzero(
        np.abs(np.abs(got.eigenvalues + 1.0) - w) <= 1e-6 * w)
    assert len(oscillator) == 2
    assert np.all(got.pair_of[oscillator] >= 0) == (where != "below")


def near_defective(log_gap, seed):
    """A 2x2 block with eigenvalues 1e-14 .. 1e-8 apart has cond(U) near
    2 / gap: both sides of the 1e12 gate and of the Frobenius certificate."""
    rng = np.random.default_rng(seed)
    a = np.diag(-rng.uniform(2.0, 5.0, 4))
    a[:2, :2] = [[-1.0, 1.0], [0.0, -1.0 - 10.0 ** log_gap]]
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q @ a @ q.T


@given(st.floats(-14.0, -8.0), st.integers(0, 2**32 - 1))
@example(-12.0 + np.log10(2.0), 0)
def test_matches_svd_reference_on_near_defective_matrices(log_gap, seed):
    assert_matches_reference(near_defective(log_gap, seed))


def test_common_path_needs_no_svd(monkeypatch, case_b):
    # solved before the patch: only eig_biorthogonal runs without svd
    solved = [(state_matrix(s.farm, s.sol), s.modal) for s in (
        case_b, SolvedFarm(load_farm(ROOT / "farms" / "zero_network.json")),
        SolvedFarm(ladder_farm(10, 10, 7)))]

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # cond and norm(ord=2) look svd up in the module that defines them
    monkeypatch.setitem(np.linalg.cond.__wrapped__.__globals__, "svd", no_svd)
    with pytest.raises(AssertionError, match="SVD called"):
        np.linalg.cond(np.eye(2))
    for a, want in solved:
        assert_same_solution(eig_biorthogonal(a), want)


# ---------------------------------------------------------------------------
# conjugate pairing against the reference's greedy loop


@st.composite
def spectra_with_repeats(draw):
    """Real block-diagonal matrices on a coarse grid, exact repeats likely:
    1x1 blocks [x] and 2x2 blocks [[x, y], [-y, x]] (modes x +- jy), with y
    now and then near the 1e-7 max(1, ||A||_2) pairing threshold."""
    blocks = draw(st.lists(
        st.tuples(st.integers(-3, 0),
                  st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e-9, 3e-7])),
        min_size=1, max_size=12))
    n = sum(2 if y else 1 for _, y in blocks)
    a = np.zeros((n, n))
    k = 0
    for x, y in blocks:
        if y:
            a[k:k + 2, k:k + 2] = [[x, y], [-y, x]]
            k += 2
        else:
            a[k, k] = x
            k += 1
    return draw(st.sampled_from([1e-3, 1.0, 1e6])) * a


@given(spectra_with_repeats())
@example(np.diag([-1.0, -2.0, -1.0]))
@example(np.kron(np.eye(2), [[0.0, 3e-7], [-3e-7, 0.0]]))
def test_pairing_matches_greedy_loop(a):
    assert_matches_reference(a)


def test_pairing_ties_go_to_the_lowest_index():
    # three exact copies of one pair: the k-th upper copy takes the k-th
    # lower copy, as the greedy loop's lowest-index rule has it
    a = np.kron(np.eye(3), [[-1.0, 2.0], [-2.0, -1.0]])
    sol = eig_biorthogonal(a)
    assert list(sol.pair_of) == [3, 4, 5, 0, 1, 2]
    assert_same_solution(sol, reference_eig_biorthogonal(a))


@pytest.mark.parametrize("lam", [
    pytest.param([1j, -2.1e-6 - 1j], id="near_partner"),
    pytest.param([-1 + 2j, -1 - 3j], id="partner_too_far"),
    pytest.param([-1 + 2j, -3.0], id="no_lower_mode"),
    pytest.param([-1 + 2j, -1 - 2j, -1 + 2j], id="one_short"),
])
def test_pairing_raises_for_a_missing_partner(monkeypatch, lam):
    # an eigensolver output that breaks the pair layout, which no real
    # dgeev returns: as (wr, wi, vr) for eig_biorthogonal and as `eig`'s
    # (lam, u) for the reference
    lam = np.array(lam, dtype=complex)
    n = len(lam)
    monkeypatch.setattr(_lapack, "geev",
                        lambda _: (lam.real, lam.imag, np.eye(n, order="F")))
    monkeypatch.setattr(np.linalg, "eig",
                        lambda _: (lam.copy(), np.eye(n, dtype=complex)))
    a = np.ones((n, n))
    with pytest.raises(DefectiveMatrixError,
                       match="no conjugate partner for eigenvalue"):
        eig_biorthogonal(a)
    assert_matches_reference(a)


# ---------------------------------------------------------------------------
# the real basis against the complex-arithmetic oracle


@st.composite
def real_repeated_near_real(draw):
    """Block-diagonal matrices with repeated modes (copies of one random
    block), real modes (a diagonal block) and a near-real pair (a block
    [[x, y], [-y, x]] with 0 < y <= 1e-7 ||A||), now and then mixed by an
    orthogonal similarity so that their vectors are dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.normal(size=(draw(st.integers(1, 6)),) * 2)
    blocks = [block] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        blocks.append(np.diag(rng.normal(size=draw(st.integers(1, 3)))))
    if draw(st.booleans()):
        x, y = rng.normal(), draw(st.floats(1e-12, 1.0)) * 1e-7
        blocks.append(np.array([[x, y], [-y, x]]) * np.linalg.norm(block))
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n))
    k = 0
    for b in blocks:
        a[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q @ a @ q.T
    return a


@given(real_repeated_near_real())
@example(np.kron(np.eye(2), [[-1.0, 2.0], [-2.0, -1.0]]))
@example(np.array([[-1.0, 1e-9], [-1e-9, -1.0]]))
@example(np.diag([-1.0, -2.0, -1.0]))
def test_real_basis_rebuilds_the_complex_oracle(a):
    """U rebuilt from R equals the complex oracle's value for value, that
    is bit for bit up to the sign of a zero; V = U^-1 agrees to roundoff
    and the MPF columns sum to one."""
    ref = outcome(complex_eig_biorthogonal, a)
    sol = outcome(eig_biorthogonal, a)
    if isinstance(ref, str) or isinstance(sol, str):
        assert isinstance(ref, str) and isinstance(sol, str)
        return
    u, v = complex_basis(sol)
    every = np.arange(sol.n_modes)
    assert np.array_equal(sol.right(every, every), u)
    assert np.array_equal(sol.left(every, every), v.T)
    assert np.array_equal(sol.eigenvalues, ref.eigenvalues)
    assert np.array_equal(sol.pair_of, ref.pair_of)
    assert np.array_equal(u, ref.right)
    assert np.abs(v - ref.left).max() <= 1e-10 * np.abs(ref.left).max()
    assert np.abs(full_mpf(sol).sum(axis=0) - 1.0).max() < 1e-8
    # the near-real and oscillatory pairs alike are exact conjugates
    assert np.array_equal(sol.eigenvalues[sol.conj_of],
                          np.conj(sol.eigenvalues))
    assert np.array_equal(u[:, sol.conj_of], np.conj(u))
    assert np.array_equal(v[sol.conj_of], np.conj(v))


@given(real_repeated_near_real())
def test_real_basis_gates_equal_the_complex_ones(a):
    """With D = diag(1 for a real mode, sqrt 2 for a pair member),
    cond(R D) = cond_2(U) and ||R D||_F ||D^-1 W||_F = ||U||_F ||V||_F."""
    sol = outcome(eig_biorthogonal, a)
    assume(not isinstance(sol, str))
    u, v = complex_basis(sol)
    d = np.where(sol.conj_of == np.arange(sol.n_modes), 1.0, np.sqrt(2.0))
    cond = np.linalg.cond(u)
    assert abs(np.linalg.cond(sol.basis * d) - cond) <= 1e-10 * cond
    cert = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(np.linalg.norm(sol.basis * d)
               * np.linalg.norm(sol.inverse / d[:, None]) - cert) \
        <= 1e-10 * cert


@pytest.mark.parametrize("case", ["a", "b"])
def test_modal_solution_holds_two_real_n_by_n_arrays(request, case):
    """Guard against re-materialising U or V: the n x n arrays a solution
    holds are R and W, real, 2 * 8 * n^2 bytes, and own their memory."""
    sol = request.getfixturevalue(f"case_{case}").modal
    n = sol.n_modes
    arrays = [value for value in vars(sol).values()
              if isinstance(value, np.ndarray)]
    assert all(x.shape in ((n,), (n, n)) for x in arrays)
    square = [x for x in arrays if x.ndim == 2]
    assert sum(x.nbytes for x in square) == 2 * 8 * n * n
    assert not any(np.iscomplexobj(x) for x in square)
    assert all(x.base is None for x in square)
    # W in np.linalg.inv's layout: participation's products round by layout
    assert sol.inverse.flags.c_contiguous


def test_eig_biorthogonal_transient_memory_is_bounded():
    """Guard against an extra n x n buffer: tracemalloc's peak over the
    call, the solution's own R and W included, stays below 3.5 * 8 * n^2
    bytes on the benchmark's seed-7 10 x 10 ladder (400 states).  Measured
    3.04 * 8 * n^2 (3.01 at 1200 states); filling R by `np.take(vr, order,
    axis=1, out=np.empty((n, n), order="F"))` reads 4.02."""
    s = SolvedFarm(ladder_farm(10, 10, 7))
    a_s = state_matrix(s.farm, s.sol)
    n = a_s.shape[0]
    sol, peak = traced_peak(lambda: eig_biorthogonal(a_s))
    assert sol.n_modes == n == 400
    assert peak < 3.5 * 8 * n * n


def square_arrays(obj, n: int) -> list[np.ndarray]:
    """The n x n arrays among the fields of a dataclass tree."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.shape == (n, n) else []
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj)
                for x in square_arrays(getattr(obj, f.name), n)]
    return []


def counting_linear_model(monkeypatch) -> list:
    """Patch `modal.linear_model` to log each call; returns the log."""
    calls = []

    def counted(farm, flow):
        calls.append(farm)
        return linear_model(farm, flow)
    monkeypatch.setattr(modal, "linear_model", counted)
    return calls


def test_solve_modes_keeps_no_state_matrix(monkeypatch):
    """The solved model holds R and W and no other n x n array, the farm is
    linearized once, and tracemalloc's peak over `solve_modes` stays below
    3.25 * 8 * n^2 bytes on the seed-7 10 x 10 ladder (400 states).
    Measured 3.04 * 8 * n^2 (3.01 at 1200 states), set by R, dgesv's LU
    copy of it and W.  Holding A until the pairs were decided, beside
    dgeev's copy of it and the eigenvectors, read 3.34; keeping A beside
    the whole decomposition, 4.04."""
    farm = ladder_farm(10, 10, 7)
    flow = solve_powerflow(farm)
    calls = counting_linear_model(monkeypatch)
    model, peak = traced_peak(lambda: solve_modes(farm, flow))
    n = model.fss.n_states
    assert n == 400 and model.fss.a_s is None and len(calls) == 1
    held = square_arrays(model, n)
    assert len(held) == 2
    assert held[0] is model.modal.basis and held[1] is model.modal.inverse
    assert peak < 3.25 * 8 * n * n


def test_write_mpf_csv_transient_memory_is_bounded(tmp_path):
    """tracemalloc's peak over `write_mpf_csv` stays below 1.75 times the
    MPF block's bytes on the seed-7 10 x 10 ladder (100 u_dc rows, 100
    concern modes).  Measured 1.63: the block and one 16-row block's
    factors as it is filled; `write_arrays` writes the block's own buffer.
    Filling it in 64-row blocks read 3.31, and in 32-row blocks 2.19."""
    model = SolvedFarm(ladder_farm(10, 10, 7)).model
    block = 16 * len(model.fss.wt_order) * len(model.concern)
    _, peak = traced_peak(
        lambda: write_mpf_csv(model, tmp_path / "mpf.npz"))
    assert block == 16 * 100 * 100
    assert peak < 1.75 * block


def test_solve_modes_decides_a_near_real_pair_by_the_spectral_norm(
        monkeypatch):
    """A PLL integral gain just past critical damping gives the single WT a
    pair with |Im lam| = 3.536e-4, between 1e-7 ||A||_2 = 3.483e-4 and
    1e-7 ||A||_F = 3.598e-4, so only the SVD of A calls it oscillatory.
    `solve_modes` frees A before dgeev and relinearizes for that SVD:
    pair_of is [1, 0, 3, 2], as it was while the model kept A."""
    farm = load_farm(ROOT / "farms" / "single_wt.json")
    (wt, bus), = farm.wts
    farm = dataclasses.replace(farm, wts=(
        (dataclasses.replace(wt, ki_pll=899.9071840955), bus),))
    flow = solve_powerflow(farm)
    calls = counting_linear_model(monkeypatch)
    model = solve_modes(farm, flow)
    assert len(calls) == 2
    a = state_matrix(farm, flow)
    im = np.abs(model.modal.eigenvalues.imag)
    corner = (im > 0) & (im <= _PAIR_RTOL * np.linalg.norm(a))
    assert np.count_nonzero(corner) == 2
    assert np.all(im[corner] > _PAIR_RTOL * np.linalg.norm(a, 2))
    assert model.modal.pair_of.tolist() == [1, 0, 3, 2]


@given(real_repeated_near_real(), st.integers(0, 2**32 - 1))
def test_residues_equal_the_complex_oracle(a, seed):
    """w_re + j w_im is (C u_i)(v_i b) for a real mode and twice it for an
    upper pair member, from M = C R and q = W b, in that mode order."""
    sol = outcome(eig_biorthogonal, a)
    assume(not isinstance(sol, str))
    rng = np.random.default_rng(seed)
    c, b = rng.normal(size=(3, sol.n_modes)), rng.normal(size=sol.n_modes)
    w_re, w_im, lam = sol.residues(c @ sol.basis, sol.inverse @ b)
    u, v = complex_basis(sol)
    real = np.flatnonzero(sol.conj_of == np.arange(sol.n_modes))
    upper = np.flatnonzero(sol.eigenvalues.imag > 0)
    modes = np.concatenate([real, upper])
    ref = (c @ u[:, modes]) * (v[modes] @ b) \
        * np.where(np.isin(modes, upper), 2.0, 1.0)
    assert np.array_equal(lam, sol.eigenvalues[modes])
    assert np.abs(w_re + 1j * w_im - ref).max() \
        <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the bundled LAPACK route against the np.linalg route

bundled = pytest.mark.skipif(
    _lapack._bundled() is None,
    reason="numpy bundles no scipy-openblas LAPACK in this build, so "
           "np.linalg is the only route")


def on_numpy_route(fn, *args):
    """fn(*args) with the library lookup finding no bundled LAPACK."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lapack, "_bundled", lambda: None)
        return fn(*args)


def assert_identical(got, ref):
    """The same error message, or dataclasses whose every field is equal;
    arrays of one dtype, shape and memory layout, byte for byte."""
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    assert type(got) is type(ref)
    for field in dataclasses.fields(ref):
        x, y = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape, x.flags.c_contiguous,
                    x.flags.f_contiguous) == (y.dtype, y.shape,
                                              y.flags.c_contiguous,
                                              y.flags.f_contiguous), field.name
            assert x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


def assert_routes_agree(a):
    assert_identical(outcome(eig_biorthogonal, a),
                     on_numpy_route(outcome, eig_biorthogonal, a))


@bundled
@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c", "case_d",
                                  "zero_network", "single_wt", "ladder10x10"])
def test_numpy_route_gives_the_same_bits_on_farms(name):
    farm = ladder_farm(10, 10, 7) if name == "ladder10x10" \
        else load_farm(ROOT / "farms" / f"{name}.json")
    flow = solve_powerflow(farm)
    got = solve_modes(farm, flow)
    ref = on_numpy_route(solve_modes, farm, flow)
    assert_identical(got.modal, ref.modal)
    assert_identical(got.concern, ref.concern)


@bundled
@given(st.one_of(stable_matrices(), spectra_with_repeats(),
                 real_repeated_near_real()))
@example(np.diag([-1.0, -2.0, -1.0]))
@example(np.kron(np.eye(2), [[0.0, 3e-7], [-3e-7, 0.0]]))
@example(np.array([[-1.0, 1e-9], [-1e-9, -1.0]]))
@example(np.array([[0.0, 1.0], [0.0, 0.0]]))
def test_numpy_route_gives_the_same_bits_on_random_spectra(a):
    assert_routes_agree(a)


@bundled
@given(st.floats(-14.0, -8.0), st.integers(0, 2**32 - 1))
@example(-12.0 + np.log10(2.0), 0)
def test_numpy_route_gives_the_same_bits_on_near_defective_matrices(
        log_gap, seed):
    assert_routes_agree(near_defective(log_gap, seed))


@bundled
def test_bundled_route_calls_neither_eig_nor_inv(monkeypatch, case_b):
    # solved before the patch; np.linalg.eig would form a complex n x n U
    solved = [(state_matrix(s.farm, s.sol), s.modal) for s in (
        case_b, SolvedFarm(load_farm(ROOT / "farms" / "zero_network.json")),
        SolvedFarm(ladder_farm(10, 10, 7)))]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        return call
    monkeypatch.setattr(np.linalg, "eig", refuse("eig"))
    monkeypatch.setattr(np.linalg, "inv", refuse("inv"))
    with pytest.raises(AssertionError, match="np.linalg.eig called"):
        on_numpy_route(eig_biorthogonal, np.eye(2))
    for a, want in solved:
        assert_identical(eig_biorthogonal(a), want)


class Reporting:
    """The bundled routines, except that `routine` reports INFO = `info`
    once its work is done (dgeev's workspace query excepted)."""

    def __init__(self, routine, info):
        self.lapack, self.routine, self.info = _lapack._bundled(), routine, info

    def dgeev(self, a, wr, wi, vr, work, lwork):
        got = self.lapack.dgeev(a, wr, wi, vr, work, lwork)
        return self.info if self.routine == "dgeev" and lwork != -1 else got

    def dgesv(self, a, ipiv, b):
        got = self.lapack.dgesv(a, ipiv, b)
        return self.info if self.routine == "dgesv" else got


@bundled
@pytest.mark.parametrize("routine,info,error,match", [
    ("dgeev", 3, np.linalg.LinAlgError, "^Eigenvalues did not converge$"),
    # the SVD accepts the basis, and the second solve meets the same pivot
    ("dgesv", 2, np.linalg.LinAlgError, "^Singular matrix$"),
    ("dgeev", -13, RuntimeError, r"dgeev rejected argument 13 \(LWORK\)"),
    ("dgesv", -7, RuntimeError, r"dgesv rejected argument 7 \(LDB\)"),
])
def test_lapack_info_raises(monkeypatch, routine, info, error, match):
    fake = Reporting(routine, info)
    monkeypatch.setattr(_lapack, "_bundled", lambda: fake)
    with pytest.raises(error, match=match):
        eig_biorthogonal(np.array([[-1.0, 2.0], [-2.0, -1.0]]))


@bundled
def test_singular_solve_falls_to_the_svd_gate(monkeypatch):
    fake = Reporting("dgesv", 1)
    monkeypatch.setattr(_lapack, "_bundled", lambda: fake)
    with pytest.raises(DefectiveMatrixError, match="ill-conditioned"):
        eig_biorthogonal(np.array([[0.0, 1.0], [0.0, 0.0]]))


@bundled
@pytest.mark.parametrize("a,ipiv", [
    pytest.param(np.ones((3, 3)), np.empty(3, dtype=np.int64), id="C_order"),
    pytest.param(np.ones((3, 3), order="F"), np.empty(3, dtype=np.int32),
                 id="int32_pivots"),
])
def test_lapack_refuses_a_buffer_of_another_form(a, ipiv):
    with pytest.raises(ValueError, match="writeable Fortran-ordered"):
        _lapack._bundled().dgesv(a, ipiv, np.eye(3, order="F"))



# ---------------------------------------------------------------------------
# the phase and the norm of the right vectors

EPS = np.finfo(float).eps
any_real_matrix = st.one_of(stable_matrices(), spectra_with_repeats(),
                            real_repeated_near_real())


def rephased(sol, rng):
    """`sol` with each u_i times a unit factor, and the map T that took:
    a real mode's column of R times +-1, a pair's (Re u, Im u) columns
    turned by a random angle t, so that u_up is times e^{jt}; R' = R T and
    W' = T^T W = R'^-1."""
    n = sol.n_modes
    t = np.eye(n)
    for i in np.flatnonzero(sol.conj_of == np.arange(n)):
        t[i, i] = rng.choice([-1.0, 1.0])
    for up in np.flatnonzero(sol.eigenvalues.imag > 0):
        lo, angle = sol.conj_of[up], rng.uniform(0.0, 2.0 * np.pi)
        t[[up, lo, up, lo], [up, up, lo, lo]] = (
            np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle))
    return dataclasses.replace(sol, basis=sol.basis @ t,
                               inverse=t.T @ sol.inverse), t


def pair_magnitudes(x, conj_of):
    """|x_re + j x_im| of each mode's pair of real-form columns (the last
    axis of x): |x_i| for a real mode."""
    real = conj_of == np.arange(len(conj_of))
    return np.sqrt(x**2 + np.where(real, 0.0, x[..., conj_of]**2))


@given(any_real_matrix, st.integers(0, 2**32 - 1))
@example(np.array([[-1.0, 2.0], [-2.0, -1.0]]), 0)
def test_no_result_reads_the_phase_of_a_vector(a, seed):
    """u_i e^{jt} goes with v_i e^{-jt}: every participation factor, every
    residue and cond(R D) stay, up to the roundoff of turning R and W.
    Over 3000 draws the factors and residues moved by at most 2.3 eps of
    |v_i[k]| |u_i[k]| and of |M_i| |q_i|, and cond by 1.1 n eps cond^2; the
    bounds are 8 eps and 16 n eps cond^2 (an SVD's error in the smallest
    singular value is a few n eps sigma_max)."""
    sol = outcome(eig_biorthogonal, a)
    assume(not isinstance(sol, str))
    rng = np.random.default_rng(seed)
    turned, t = rephased(sol, rng)
    n = sol.n_modes
    every = np.arange(n)

    size = np.abs(sol.left(every, every)) * np.abs(sol.right(every, every))
    assert np.all(np.abs(turned.participation(every, every)
                         - sol.participation(every, every)) <= 8 * EPS * size)

    m, q = rng.normal(size=(3, n)), rng.normal(size=n)
    w_re, w_im, lam = sol.residues(m, q)
    got_re, got_im, got_lam = turned.residues(m @ t, t.T @ q)
    assert np.array_equal(got_lam, lam)
    real = np.flatnonzero(sol.conj_of == every)
    modes = np.concatenate([real, np.flatnonzero(sol.eigenvalues.imag > 0)])
    size = pair_magnitudes(m, sol.conj_of)[:, modes] \
        * pair_magnitudes(q, sol.conj_of)[modes]
    assert np.all(np.abs(got_re - w_re + 1j * (got_im - w_im))
                  <= 8 * EPS * size)

    d = np.where(sol.conj_of == every, 1.0, np.sqrt(2.0))
    cond = np.linalg.cond(sol.basis * d)
    assert abs(np.linalg.cond(turned.basis * d) - cond) \
        <= 16 * n * EPS * cond**2


def assert_unit_vectors(sol):
    """||u_i||_2 = 1 within 1e-14: ||R_i|| for a real mode, and
    sqrt(||R_up||^2 + ||R_lo||^2) for both members of a pair."""
    norms = pair_magnitudes(np.linalg.norm(sol.basis, axis=0), sol.conj_of)
    assert np.abs(norms - 1.0).max() <= 1e-14


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
def test_right_vectors_have_unit_norm_on_study_cases(request, case):
    """The cond(U) gate measures dgeev's unit vectors, on both routes."""
    s = request.getfixturevalue(f"case_{case}")
    a = state_matrix(s.farm, s.sol)
    assert_unit_vectors(eig_biorthogonal(a))
    assert_unit_vectors(on_numpy_route(eig_biorthogonal, a))


@given(any_real_matrix)
def test_right_vectors_have_unit_norm_on_random_matrices(a):
    sol = outcome(eig_biorthogonal, a)
    assume(not isinstance(sol, str))
    assert_unit_vectors(sol)
    assert_unit_vectors(on_numpy_route(eig_biorthogonal, a))
