"""Eigendecomposition, participation factors, and concern-mode selection.

Oracles: closed-form roots for 2x2 cases, the matrix exponential for the
zero-input response reconstruction, and the analytic stiff-grid mode for the
decoupled farm.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from wfdem.cases import identical_zero_network_farm
from wfdem.assembly import assemble_farm
from wfdem.farm import build_network_matrices
from wfdem.modal import (DefectiveMatrixError, eig_biorthogonal,
                         select_concern_modes, write_modes_csv,
                         write_mpf_csv)
from wfdem.powerflow import solve_powerflow, wt_operating_point
from wfdem.wt import linearize_wt, stiff_grid_mode


def solved_zero_farm(n=5, p=0.8):
    farm = identical_zero_network_farm(n, p_m0=p)
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    fss = assemble_farm(blocks, build_network_matrices(farm))
    return farm, sol, fss


# ---------------------------------------------------------------------------


def test_diagonal_matrix():
    sol = eig_biorthogonal(np.diag([-1.0, -2.0]))
    assert np.allclose(sol.eigenvalues, [-2.0, -1.0])     # sorted by Re
    # each mode participates only in its own state: f is the permutation
    # aligning sorted modes with their diagonal entries
    assert np.allclose(sol.mpf, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert np.allclose(sol.mpf.sum(axis=0), 1.0, atol=1e-14)
    assert np.all(sol.pair_of == -1)


def test_oscillatory_2x2():
    a = np.array([[0.0, 1.0], [-100.0, -2.0]])
    sol = eig_biorthogonal(a)
    roots = np.roots([1.0, 2.0, 100.0])       # closed-form quadratic oracle
    assert min(abs(sol.eigenvalues[0] - r) for r in roots) < 1e-10
    assert abs(sol.eigenvalues[0] - (-1 - 9.9498743710662j)) < 1e-9 \
        or abs(sol.eigenvalues[0] - (-1 + 9.9498743710662j)) < 1e-9
    assert sol.pair_of[0] == 1 and sol.pair_of[1] == 0
    assert np.allclose(sol.mpf.sum(axis=0), 1.0, atol=1e-12)


def test_residuals_and_biorthonormality_on_farm_matrix(case_a):
    a = case_a.fss.a_s
    sol = case_a.modal
    norm_a = np.linalg.norm(a, 2)
    for i in range(sol.n_modes):
        res = np.linalg.norm(a @ sol.right[:, i]
                             - sol.eigenvalues[i] * sol.right[:, i])
        assert res < 1e-8 * norm_a
    assert np.abs(sol.left @ sol.right - np.eye(sol.n_modes)).max() < 1e-8
    assert np.abs(sol.mpf.sum(axis=0) - 1.0).max() < 1e-8


def test_participation_matrix_definition(case_a):
    sol = case_a.modal
    assert np.array_equal(sol.mpf, sol.left.T * sol.right)
    k, i = 7, 12
    assert sol.mpf[k, i] == sol.left[i, k] * sol.right[k, i]


def test_repeated_eigenvalues_stay_biorthonormal():
    _, _, fss = solved_zero_farm(6)
    sol = eig_biorthogonal(fss.a_s, fss.labels)
    assert np.abs(sol.left @ sol.right - np.eye(sol.n_modes)).max() < 1e-8
    assert np.abs(sol.mpf.sum(axis=0) - 1.0).max() < 1e-8


def test_conjugate_modes_carry_conjugate_mpfs(case_b):
    sol = case_b.modal
    for i in range(sol.n_modes):
        j = sol.pair_of[i]
        if j >= 0:
            assert np.abs(sol.mpf[:, i] - np.conj(sol.mpf[:, j])).max() < 1e-8


def test_phase_fixing_is_deterministic(case_a):
    a = case_a.fss.a_s
    s1 = eig_biorthogonal(a)
    s2 = eig_biorthogonal(a)
    assert np.array_equal(s1.right, s2.right)
    assert np.array_equal(s1.left, s2.left)
    for i in range(s1.n_modes):
        k = int(np.argmax(np.abs(s1.right[:, i])))
        pivot = s1.right[k, i]
        assert pivot.real > 0
        assert abs(pivot.imag) < 1e-12 * abs(pivot)


def test_zero_input_response_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    a -= 6.0 * np.eye(8)           # keep it comfortably stable
    sol = eig_biorthogonal(a)
    x0 = rng.normal(size=8)
    for t in (0.0, 0.05, 0.3, 1.0):
        modal_sum = (sol.right * np.exp(sol.eigenvalues * t)) @ (sol.left @ x0)
        direct = expm(a * t) @ x0
        assert np.abs(modal_sum.real - direct).max() < 1e-8
        assert np.abs(modal_sum.imag).max() < 1e-8


def test_zero_input_reconstruction_on_concern_states(case_a):
    # initial condition supported on the DC-voltage states only
    sol = case_a.modal
    a = case_a.fss.a_s
    rng = np.random.default_rng(11)
    x0 = np.zeros(a.shape[0])
    rows = sol.kind_rows(("u_dc",))
    x0[rows] = rng.normal(size=len(rows))
    t = 0.2
    modal_sum = (sol.right * np.exp(sol.eigenvalues * t)) @ (sol.left @ x0)
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
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    fss = assemble_farm(blocks, build_network_matrices(farm))
    msol = eig_biorthogonal(fss.a_s, fss.labels)
    concern = select_concern_modes(msol, n_expected=2)
    r1 = fss.state_index("wt01", "u_dc")
    r2 = fss.state_index("wt02", "u_dc")
    for m in concern.mode_indices:
        f1, f2 = abs(msol.mpf[r1, m]), abs(msol.mpf[r2, m])
        assert abs(f1 - f2) < 1e-9 * max(f1, f2)


# ---------------------------------------------------------------------------
# selection


def test_decoupled_farm_selects_stiff_grid_modes():
    farm, sol, fss = solved_zero_farm(5, p=0.8)
    msol = eig_biorthogonal(fss.a_s, fss.labels)
    concern = select_concern_modes(msol, n_expected=5)
    wt = farm.wts[0][0]
    lam_ref = stiff_grid_mode(wt, wt_operating_point(sol, wt), farm.bases)[0]
    rel = np.abs(concern.eigenvalues - lam_ref) / abs(lam_ref)
    assert rel.max() < 1e-6


def test_pll_filter_selects_disjoint_band(case_a):
    dvc = case_a.concern
    pll = select_concern_modes(case_a.modal, n_expected=33,
                               kinds=("pll_angle", "pll_int"))
    assert set(dvc.mode_indices).isdisjoint(pll.mode_indices)
    assert pll.eigenvalues.imag.max() < dvc.eigenvalues.imag.min()


def test_selection_invariant_to_state_reordering(case_a):
    a = case_a.fss.a_s
    labels = case_a.fss.labels
    n = a.shape[0]
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    sol_p = eig_biorthogonal(p @ a @ p.T,
                             tuple(labels[k] for k in perm))
    concern_p = select_concern_modes(sol_p, n_expected=33)
    ref = np.sort_complex(case_a.concern.eigenvalues)
    got = np.sort_complex(concern_p.eigenvalues)
    assert np.abs(ref - got).max() < 1e-8


def test_too_few_oscillatory_pairs_raises():
    sol = eig_biorthogonal(np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError, match="oscillatory"):
        select_concern_modes(sol, n_expected=1, kinds=("state",))


def test_band_mixing_warns():
    # two oscillators an order of magnitude apart, same state kind
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -4.0        # ~2 rad/s
    a[2, 3], a[3, 2] = 1.0, -40000.0    # ~200 rad/s
    labels = (("wt01", "u_dc"), ("wt01", "dvc_int"),
              ("wt02", "u_dc"), ("wt02", "dvc_int"))
    sol = eig_biorthogonal(a, labels)
    with pytest.warns(UserWarning, match="median frequency"):
        select_concern_modes(sol, n_expected=2)


def test_modes_and_mpf_csv(tmp_path, case_a):
    write_modes_csv(case_a.modal, case_a.concern, tmp_path / "modes.csv")
    write_mpf_csv(case_a.modal, tmp_path / "mpf.csv")
    modes = (tmp_path / "modes.csv").read_text().strip().splitlines()
    assert modes[0] == "re,im,freq_hz,damping_ratio,pair_id,selected"
    assert len(modes) == 1 + 132
    assert sum(line.endswith(",1") for line in modes[1:]) == 33
    mpf = (tmp_path / "mpf.csv").read_text().strip().splitlines()
    assert len(mpf) == 1 + 132
