"""Mode clustering, MPF superposition, and WT grouping.

Ground truth for the band-recovery tests is the constructed farm's known
controller groups; k-means never sees them.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wfdem.cases import ground_truth_groups
from wfdem.clustering import (FeatureTable, _kmeans_restart,
                              _lloyd, cluster_modes, group_wts,
                              superimpose_mpf, write_features_csv,
                              write_groups_json)
from wfdem.modal import ConcernSet


def concern_from_points(values) -> ConcernSet:
    eig = np.asarray(values, dtype=complex)
    return ConcernSet(mode_indices=tuple(range(len(eig))),
                      eigenvalues=eig, kinds=("u_dc",))


# ---------------------------------------------------------------------------
# serial reference: one restart at a time, one numpy call per cluster


def serial_kmeans_plus_plus(pts, c, rng):
    centres = np.empty((c, 2))
    centres[0] = pts[rng.integers(len(pts))]
    for k in range(1, c):
        d2 = np.min(((pts[:, None, :] - centres[None, :k, :]) ** 2
                     ).sum(axis=2), axis=1)
        total = d2.sum()
        if total == 0:
            centres[k] = pts[rng.integers(len(pts))]
        else:
            centres[k] = pts[rng.choice(len(pts), p=d2 / total)]
    return centres


def serial_lloyd(pts, centres, max_iter=200):
    c = len(centres)
    labels = np.full(len(pts), -1)
    for _ in range(max_iter):
        d2 = ((pts[:, None, :] - centres[None]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for k in range(c):
            if not np.any(new_labels == k):
                counts = np.bincount(new_labels, minlength=c)
                movable = counts[new_labels] > 1
                if not movable.any():
                    continue
                dist = np.where(movable,
                                d2[np.arange(len(pts)), new_labels], -np.inf)
                new_labels[int(np.argmax(dist))] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centres = np.array([pts[labels == k].mean(axis=0) if np.any(labels == k)
                            else centres[k] for k in range(c)])
    inertia = float(((pts - centres[labels]) ** 2).sum())
    return centres, labels, inertia


def serial_cluster_modes(concern, c, seed, n_restarts=32):
    pts = np.c_[concern.eigenvalues.real, concern.eigenvalues.imag]
    best = None
    for child in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(child)
        centres, labels, inertia = serial_lloyd(
            pts, serial_kmeans_plus_plus(pts, c, rng))
        key = tuple(sorted(map(tuple, centres)))
        if best is None or (inertia, key) < (best[0], best[1]):
            best = (inertia, key, centres, labels)
    inertia, _, centres, labels = best
    order = sorted(range(c), key=lambda k: (centres[k, 0], centres[k, 1]))
    members = tuple(
        tuple(concern.mode_indices[p] for p in np.flatnonzero(labels == k))
        for k in order)
    centre_cx = np.array([complex(np.mean(concern.eigenvalues[labels == k]))
                          for k in order])
    return members, centre_cx, inertia


def assert_matches_serial(concern, c, seed, n_restarts=32):
    got = cluster_modes(concern, c, seed, n_restarts=n_restarts)
    members, centres, inertia = serial_cluster_modes(concern, c, seed,
                                                     n_restarts)
    assert got.members == members
    assert np.array_equal(got.centres, centres)
    assert got.inertia == inertia


# ---------------------------------------------------------------------------
# k-means


def test_separated_pairs_on_real_axis():
    concern = concern_from_points([0.0, 1.0, 10.0, 11.0])
    cl = cluster_modes(concern, 2, seed=42)
    assert cl.centres[0] == 0.5 and cl.centres[1] == 10.5
    assert cl.members == ((0, 1), (2, 3))
    assert cl.inertia == pytest.approx(1.0)


def test_degenerate_k_equals_point_count():
    concern = concern_from_points([1 + 2j, 3 + 4j, -1 - 1j])
    cl = cluster_modes(concern, 3, seed=0)
    assert cl.inertia == 0.0
    assert sorted(map(complex, cl.centres), key=lambda z: (z.real, z.imag)) \
        == sorted(concern.eigenvalues, key=lambda z: (z.real, z.imag))


def test_k_out_of_range_rejected():
    concern = concern_from_points([1.0, 2.0])
    with pytest.raises(ValueError):
        cluster_modes(concern, 3, seed=0)
    with pytest.raises(ValueError):
        cluster_modes(concern, 0, seed=0)


def test_identical_points_do_not_break_kmeans():
    concern = concern_from_points([2 + 3j] * 5)
    cl = cluster_modes(concern, 3, seed=7)
    assert cl.inertia == 0.0
    assert sum(len(g) for g in cl.members) == 5


def test_case_b_bands_match_parameter_groups(case_b):
    cl = cluster_modes(case_b.concern, 3, seed=42)
    truth = ground_truth_groups()
    rows = {wt: case_b.fss.state_index(wt, "u_dc")
            for wt in case_b.fss.wt_order}
    group_sizes = {g: sum(1 for v in truth.values() if v == g)
                   for g in set(truth.values())}
    seen_labels = []
    for members in cl.members:
        # every mode in a band must belong to WTs of one parameter group;
        # attribute each mode to its dominant DC-voltage state
        labels = set()
        for m in members:
            scores = {wt: abs(case_b.modal.mpf[row, m])
                      for wt, row in rows.items()}
            labels.add(truth[max(scores, key=scores.get)])
        assert len(labels) == 1
        label = labels.pop()
        assert len(members) == group_sizes[label]
        seen_labels.append(label)
    assert sorted(seen_labels) == sorted(group_sizes)


def test_centres_are_member_means(case_b):
    cl = cluster_modes(case_b.concern, 3, seed=42)
    idx_of = {m: k for k, m in enumerate(case_b.concern.mode_indices)}
    for centre, members in zip(cl.centres, cl.members):
        mean = np.mean([case_b.concern.eigenvalues[idx_of[m]]
                        for m in members])
        assert abs(centre - mean) < 1e-12


def test_restarts_never_worse_than_single_run(case_c):
    concern = case_c.concern
    best = cluster_modes(concern, 3, seed=9, n_restarts=32)
    pts = np.c_[concern.eigenvalues.real, concern.eigenvalues.imag]
    for child in np.random.SeedSequence(9).spawn(32):
        _, _, inertia = _kmeans_restart(pts, 3, child)
        assert best.inertia <= inertia + 1e-12


@given(st.integers(0, 100))
def test_lloyd_inertia_non_increasing(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(20, 2))
    centres0 = pts[rng.choice(20, 4, replace=False)]
    trace: list[float] = []
    _lloyd(pts, centres0, trace=trace)
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@st.composite
def grid_points(draw):
    """Points on a coarse grid, so duplicates are common, and a valid C."""
    grid = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                         min_size=1, max_size=24))
    return grid, draw(st.integers(1, len(grid)))


# coincident seeds leave clusters empty (revival), and C above the number
# of distinct points exhausts them during seeding (total == 0)
@given(grid_points(), st.integers(0, 2**32 - 1), st.integers(1, 8))
@example(([(1, 2)] * 5, 4), 7, 4)
@example(([(0, 0), (0, 0), (1, 0), (1, 0), (5, 1)], 5), 3, 8)
def test_batched_kmeans_matches_serial_reference(points, seed, n_restarts):
    grid, c = points
    concern = concern_from_points([0.37 * x + 1.9j * y for x, y in grid])
    assert_matches_serial(concern, c, seed, n_restarts)


@pytest.mark.parametrize("case", ["b", "c", "d"])
def test_batched_kmeans_matches_serial_on_study_cases(request, case):
    concern = request.getfixturevalue(f"case_{case}").concern
    for c in range(1, 34):
        assert_matches_serial(concern, c, seed=42)


def test_fixed_seed_is_deterministic(case_b):
    c1 = cluster_modes(case_b.concern, 3, seed=123)
    c2 = cluster_modes(case_b.concern, 3, seed=123)
    assert c1.members == c2.members
    assert np.array_equal(c1.centres, c2.centres)
    assert c1.inertia == c2.inertia


# ---------------------------------------------------------------------------
# superposition


def test_single_cluster_sums_whole_row(case_a):
    cl = cluster_modes(case_a.concern, 1, seed=42)
    ft = superimpose_mpf(case_a.modal.mpf, cl, case_a.rep_rows)
    for r, wt in enumerate(ft.wt_ids):
        row = case_a.rep_rows[wt]
        total = sum(case_a.modal.mpf[row, m]
                    for m in case_a.concern.mode_indices)
        assert abs(ft.table[r, 0] - total) < 1e-12


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_row_totals_conserved_across_cluster_count(case_b, c):
    ft = superimpose_mpf(case_b.modal.mpf,
                         cluster_modes(case_b.concern, c, seed=42),
                         case_b.rep_rows)
    full = superimpose_mpf(case_b.modal.mpf,
                           cluster_modes(case_b.concern, 1, seed=42),
                           case_b.rep_rows)
    assert np.abs(ft.table.sum(axis=1) - full.table[:, 0]).max() < 1e-10


def test_identical_decoupled_wts_split_symmetrically():
    from wfdem.cases import identical_zero_network_farm
    from wfdem.powerflow import solve_powerflow, wt_operating_point
    from wfdem.wt import linearize_wt
    from wfdem.farm import build_network_matrices
    from wfdem.assembly import assemble_farm
    from wfdem.modal import eig_biorthogonal, select_concern_modes

    farm = identical_zero_network_farm(2, p_m0=0.9)
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    fss = assemble_farm(blocks, build_network_matrices(farm))
    msol = eig_biorthogonal(fss.a_s, fss.labels)
    concern = select_concern_modes(msol, n_expected=2)
    cl = cluster_modes(concern, 2, seed=42)
    rep = {wt: fss.state_index(wt, "u_dc") for wt in fss.wt_order}
    ft = superimpose_mpf(msol.mpf, cl, rep)
    totals = ft.table.sum(axis=1)
    assert np.abs(totals - totals[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# grouping


def test_equal_features_collapse_to_one_group():
    table = np.array([[0.5 + 0j, 0.5 + 0j]] * 4)
    ft = FeatureTable(wt_ids=("w1", "w2", "w3", "w4"), table=table)
    assert group_wts(ft, tau=0.1).n_groups == 1


def test_near_equal_features_merge_across_argmax_split():
    # dominance splits the WTs over both clusters, but the centroids are
    # within tau of each other, so the merge rule collapses them
    table = np.array([[0.501, 0.499], [0.499, 0.501]], dtype=complex)
    ft = FeatureTable(wt_ids=("w1", "w2"), table=table)
    groups = group_wts(ft, tau=0.1)
    assert groups.n_groups == 1
    assert len(groups.merged) == 1
    assert group_wts(ft, tau=1e-6).n_groups == 2


def test_case_b_groups_match_ground_truth(case_b):
    _, _, groups = case_b.clustered(3)
    truth = ground_truth_groups()
    # same partition up to relabeling
    by_truth = {}
    for wt, g in truth.items():
        by_truth.setdefault(g, set()).add(wt)
    by_got = {}
    for wt, g in groups.group_of.items():
        by_got.setdefault(g, set()).add(wt)
    assert {frozenset(v) for v in by_truth.values()} \
        == {frozenset(v) for v in by_got.values()}


def test_case_a_feature_vectors_nearly_equal(case_a):
    # uniform controllers: the per-WT features barely differ, so a
    # single-machine representation is justified regardless of C
    _, ft1, _ = case_a.clustered(1)
    mags = np.abs(ft1.table[:, 0])
    assert (mags.max() - mags.min()) / mags.mean() < 0.01
    _, _, groups2 = case_a.clustered(2)
    assert groups2.n_groups == 1


def test_case_c_groups_match_ground_truth(case_c):
    _, _, groups = case_c.clustered(3)
    truth = ground_truth_groups()
    by_truth, by_got = {}, {}
    for wt, g in truth.items():
        by_truth.setdefault(g, set()).add(wt)
    for wt, g in groups.group_of.items():
        by_got.setdefault(g, set()).add(wt)
    assert {frozenset(v) for v in by_truth.values()} \
        == {frozenset(v) for v in by_got.values()}


def test_fifty_fifty_split_flagged_low_margin():
    table = np.array([[0.5, 0.5], [0.9, 0.1]], dtype=complex)
    ft = FeatureTable(wt_ids=("tied", "clear"), table=table)
    groups = group_wts(ft, tau=0.0)     # no merging, inspect raw margins
    assert groups.group_of["tied"] == 0          # argmax tie -> first cluster
    assert groups.margins["tied"] == 0.0
    assert groups.margins["clear"] > 0.5


def test_grouping_invariant_under_positive_rescale(case_b):
    _, features, groups = case_b.clustered(3)
    scaled = FeatureTable(wt_ids=features.wt_ids,
                          table=3.7 * features.table)
    assert group_wts(scaled).group_of == groups.group_of


def test_groups_json(tmp_path):
    table = np.array([[0.5, 0.5], [0.1, 0.9]], dtype=complex)
    ft = FeatureTable(wt_ids=("tied", "clear"), table=table)
    groups = group_wts(ft, tau=0.0)
    write_groups_json(groups, tmp_path / "groups.json")
    import json
    doc = json.loads((tmp_path / "groups.json").read_text())
    assert doc["low_margin_wts"] == ["tied"]
    assert doc["n_groups"] == 2


def test_features_csv(tmp_path, case_b):
    _, features, _ = case_b.clustered(3)
    write_features_csv(features, tmp_path / "features.csv")
    lines = (tmp_path / "features.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 33
    assert lines[0].startswith("wt_id,cluster0_abs")
