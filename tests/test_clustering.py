"""Mode clustering, MPF superposition, and WT grouping.

Ground truth for the band-recovery tests is the constructed farm's known
controller groups; k-means never sees them.
"""

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import full_mpf
from wfdem.cases import ground_truth_groups
from wfdem.clustering import (FeatureTable, _lloyd_batch, cluster_modes,
                              group_wts, superimpose_mpf,
                              sweep_cluster_counts, write_features_csv,
                              write_groups_json)
from wfdem.modal import ConcernSet


def concern_from_points(values) -> ConcernSet:
    eig = np.asarray(values, dtype=complex)
    return ConcernSet(mode_indices=tuple(range(len(eig))),
                      eigenvalues=eig)


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


def assert_same_clusters(got, expected):
    members, centres, inertia = expected
    assert got.members == members
    assert np.array_equal(got.centres, centres)
    assert got.inertia == inertia


def assert_matches_serial(concern, c, seed, n_restarts=32):
    assert_same_clusters(cluster_modes(concern, c, seed, n_restarts=n_restarts),
                         serial_cluster_modes(concern, c, seed, n_restarts))


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
    with pytest.raises(ValueError, match="no concern modes"):
        sweep_cluster_counts(concern_from_points([]), 0, lambda cl: True)


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
    mpf = full_mpf(case_b.modal)
    seen_labels = []
    for members in cl.members:
        # every mode in a band must belong to WTs of one parameter group;
        # attribute each mode to its dominant DC-voltage state
        labels = set()
        for m in members:
            scores = {wt: abs(mpf[row, m])
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
    inertias = []
    for child in np.random.SeedSequence(9).spawn(32):
        rng = np.random.default_rng(child)
        _, _, inertia = serial_lloyd(pts, serial_kmeans_plus_plus(pts, 3, rng))
        assert best.inertia <= inertia + 1e-12
        inertias.append(inertia)
    assert best.inertia == min(inertias)


@given(st.integers(0, 100))
def test_lloyd_inertia_non_increasing(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(20, 2))
    centres0 = pts[rng.choice(20, 4, replace=False)]
    trace: list[float] = []
    _lloyd_batch(pts, centres0[None], trace=[trace])
    assert trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@st.composite
def grid_points(draw):
    """Points on a coarse grid, so duplicates are common, and a valid C."""
    grid = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                         min_size=1, max_size=24))
    return grid, draw(st.integers(1, len(grid)))


# coincident seeds leave clusters empty (revival), and C above the number
# of distinct points exhausts them during seeding (total == 0); up to five
# further calls at other Cs follow, each of which must draw its own seeds
@given(grid_points(), st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.lists(st.integers(0, 23), max_size=5))
@example(([(1, 2)] * 5, 4), 7, 4, [])
@example(([(0, 0), (0, 0), (1, 0), (1, 0), (5, 1)], 5), 3, 8, [])
@example(([(1, 2)] * 5, 1), 7, 4, [3, 0, 4, 1])
@example(([(0, 0), (0, 0), (1, 0), (1, 0), (5, 1)], 2), 3, 8, [4, 0, 2])
def test_batched_kmeans_matches_serial_reference(points, seed, n_restarts,
                                                 then):
    grid, c = points
    concern = concern_from_points([0.37 * x + 1.9j * y for x, y in grid])
    for c in [c] + [1 + pick % len(grid) for pick in then]:
        assert_matches_serial(concern, c, seed, n_restarts)


@pytest.fixture(scope="module", params=["b", "c", "d"])
def study_serial(request):
    """A study case's concern set and its serial clusterings at C = 1..33."""
    concern = request.getfixturevalue(f"case_{request.param}").concern
    return concern, {c: serial_cluster_modes(concern, c, 42)
                     for c in range(1, 34)}


def test_batched_kmeans_matches_serial_on_study_cases(study_serial):
    # every call order gives what a lone call gives
    concern, expected = study_serial
    shuffled = np.random.default_rng(3).permutation(np.arange(1, 34))
    for order in (range(1, 34), range(33, 0, -1), shuffled):
        for c in order:
            assert_same_clusters(cluster_modes(concern, int(c), seed=42),
                                 expected[c])


# ---------------------------------------------------------------------------
# the C = 1, 2, ... sweep


def test_sweep_returns_the_clustering_accept_takes(study_serial):
    concern, expected = study_serial
    for c in expected:
        assert_same_clusters(
            sweep_cluster_counts(concern, 42,
                                 lambda cl, c=c: cl.n_clusters == c),
            expected[c])


def test_sweep_without_an_accepted_count_gives_one_mode_per_cluster(
        study_serial):
    concern, expected = study_serial
    seen = []

    def reject(cl):
        seen.append(cl.n_clusters)
        return False

    assert_same_clusters(sweep_cluster_counts(concern, 42, reject),
                         expected[33])
    assert seen == list(range(1, 34))


def test_sweep_stops_at_the_first_accepted_count(case_b):
    seen = []

    def accept(cl):
        seen.append(cl.n_clusters)
        return cl.n_clusters in (3, 4, 7)

    assert sweep_cluster_counts(case_b.concern, 42, accept).n_clusters == 3
    assert seen == [1, 2, 3]


# ---------------------------------------------------------------------------
# calls share no state: any call order gives what a lone call gives


def test_interleaved_calls_share_no_state(case_b, case_c):
    concerns = {"b": case_b.concern, "c": case_c.concern}
    keys = list(itertools.product("bc", (42, 7), (32, 5), (1, 2, 3, 8, 21)))
    expected = {(name, seed, n_r, c): serial_cluster_modes(
        concerns[name], c, seed, n_r) for name, seed, n_r, c in keys}
    for i in np.random.default_rng(5).permutation(len(keys)):
        name, seed, n_r, c = keys[i]
        assert_same_clusters(
            cluster_modes(concerns[name], c, seed, n_restarts=n_r),
            expected[keys[i]])


def test_threads_clustering_at_once_share_no_state():
    # two threads step through C = 1..30 in lockstep on one concern set and
    # seed, so both draw each new centre at once; generators or seeds
    # shared between calls would corrupt each other's draws
    xy = np.random.default_rng(0).standard_normal((100, 2))
    concern = concern_from_points(xy[:, 0] + 1j * xy[:, 1])
    cs = range(1, 31)
    fresh = {c: cluster_modes(concern, c, 0) for c in cs}

    def sweep(step):
        out = []
        for c in cs:
            step.wait()
            out.append((c, cluster_modes(concern, c, 0)))
        return out

    wrong = []
    for _ in range(2):
        step = threading.Barrier(2, timeout=30)
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(sweep, step) for _ in range(2)]
            for run in runs:
                wrong += [c for c, got in run.result()
                          if got.members != fresh[c].members
                          or not np.array_equal(got.centres, fresh[c].centres)
                          or got.inertia != fresh[c].inertia]
    assert wrong == []


def test_exact_inertia_tie_goes_to_the_smallest_centres():
    # a unit square at C = 2 splits left/right or bottom/top, both at
    # inertia 1.0 exactly; at seed 5 the first restart to reach it splits
    # bottom/top, and the lexicographically smaller left/right split wins
    concern = concern_from_points([0, 1, 1j, 1 + 1j])
    pts = np.c_[concern.eigenvalues.real, concern.eigenvalues.imag]
    runs = []
    for child in np.random.SeedSequence(5).spawn(8):
        centres, _, inertia = serial_lloyd(
            pts, serial_kmeans_plus_plus(pts, 2, np.random.default_rng(child)))
        runs.append((inertia, tuple(sorted(map(tuple, centres)))))
    tied = [key for inertia, key in runs if inertia == 1.0]
    assert min(inertia for inertia, _ in runs) == 1.0
    assert tied[0] == ((0.5, 0.0), (0.5, 1.0))
    assert min(tied) == ((0.0, 0.5), (1.0, 0.5))
    cl = cluster_modes(concern, 2, seed=5, n_restarts=8)
    assert list(cl.centres) == [0.5j, 1 + 0.5j]
    assert cl.members == ((0, 2), (1, 3))
    assert_matches_serial(concern, 2, seed=5, n_restarts=8)


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
    ft = superimpose_mpf(case_a.modal, cl, case_a.rep_rows)
    mpf = full_mpf(case_a.modal)
    for r, wt in enumerate(ft.wt_ids):
        row = case_a.rep_rows[wt]
        total = sum(mpf[row, m]
                    for m in case_a.concern.mode_indices)
        assert abs(ft.table[r, 0] - total) < 1e-12


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_row_totals_conserved_across_cluster_count(case_b, c):
    ft = superimpose_mpf(case_b.modal,
                         cluster_modes(case_b.concern, c, seed=42),
                         case_b.rep_rows)
    full = superimpose_mpf(case_b.modal,
                           cluster_modes(case_b.concern, 1, seed=42),
                           case_b.rep_rows)
    assert np.abs(ft.table.sum(axis=1) - full.table[:, 0]).max() < 1e-10


def test_identical_decoupled_wts_split_symmetrically():
    from wfdem.assembly import linear_model
    from wfdem.cases import identical_zero_network_farm
    from wfdem.modal import eig_biorthogonal, select_concern_modes
    from wfdem.powerflow import solve_powerflow

    farm = identical_zero_network_farm(2, p_m0=0.9)
    fss = linear_model(farm, solve_powerflow(farm))
    msol = eig_biorthogonal(fss.a_s, fss.labels)
    concern = select_concern_modes(msol, n_expected=2)
    cl = cluster_modes(concern, 2, seed=42)
    rep = {wt: fss.state_index(wt, "u_dc") for wt in fss.wt_order}
    ft = superimpose_mpf(msol, cl, rep)
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
