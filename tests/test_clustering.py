"""Mode clustering, MPF superposition, and WT grouping.

Ground truth for the band-recovery tests is the constructed farm's known
controller groups; k-means never sees them.
"""

import itertools
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import SolvedFarm, ladder_farm, traced_peak
from oracles import (farthest_first_floors, full_mpf, group_wts_by_rounds,
                     superimposed_mpf_by_sum)
from wfdem.cases import ground_truth_groups
from wfdem.clustering import (COINCIDENT_RTOL, FLOOR_RTOL, GROUP_TAU,
                              FeatureTable, ModeClusters, _draw,
                              _far_set_size,
                              _lloyd_batch, cluster_modes, group_wts,
                              superimpose_mpf,
                              sweep_cluster_counts, write_features_csv,
                              write_groups_json)
from wfdem.modal import ConcernSet, solve_modes
from wfdem.powerflow import solve_powerflow
from wfdem.validation import error_E


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
    # coincident centres merge: each centre, in canonical order, joins
    # every set holding a centre within the tolerance; the sets go by
    # their first centre in canonical order
    tol = COINCIDENT_RTOL * np.abs(concern.eigenvalues).max()
    sets = []
    for k in order:
        hit = [s for s in sets if any(
            abs(complex(*centres[k]) - complex(*centres[j])) <= tol
            for j in s)]
        sets = [s for s in sets if s not in hit] + [sum(hit, []) + [k]]
    sets.sort(key=lambda s: min(map(order.index, s)))
    set_of = [next(j for j, s in enumerate(sets) if labels[p] in s)
              for p in range(len(pts))]
    centre_cx = np.array([complex(np.mean(concern.eigenvalues[
        np.isin(labels, s)])) for s in sets])
    return set_of, centre_cx, inertia


def astuple_clusters(clusters):
    return clusters.labels, clusters.centres, clusters.inertia


def assert_same_clusters(got, expected):
    labels, centres, inertia = expected
    assert np.array_equal(got.labels, labels)
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
    assert cl.labels.tolist() == [0, 0, 1, 1]
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
        sweep_cluster_counts(concern_from_points([]), 0, 1.0, lambda cl: 0.0)


def test_identical_points_do_not_break_kmeans():
    concern = concern_from_points([2 + 3j] * 5)
    cl = cluster_modes(concern, 3, seed=7)
    assert cl.inertia == 0.0
    assert cl.labels.tolist() == [0] * 5


def test_modes_too_large_to_square_cluster_as_if_scaled():
    # the squared distances of these modes overflow a float; k-means sees
    # them scaled by a power of two, so the partition is that of the same
    # modes times 2**-300, with no RuntimeWarning (an error in this suite)
    values = np.array([-1e200 + 1e200j, 1e200 + 3e200j, -2 + 5j,
                       -3e199 + 1j, 4e200 + 2e200j])
    big = concern_from_points(values)
    small = concern_from_points(values * 2.0 ** -300)
    got, ref = cluster_modes(big, 2, 42), cluster_modes(small, 2, 42)
    assert np.array_equal(got.labels, ref.labels)
    assert np.array_equal(got.centres, ref.centres * 2.0 ** 300)
    assert got.inertia == np.inf and np.isfinite(ref.inertia)
    swept = sweep_cluster_counts(big, 42, 0.02,
                                 lambda cl: error_E(big, cl))
    assert np.array_equal(swept.labels, sweep_cluster_counts(
        small, 42, 0.02, lambda cl: error_E(small, cl)).labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_modes_that_are_not_finite_are_refused(bad):
    concern = concern_from_points([1 + 1j, bad, 3 + 2j])
    with pytest.raises(ValueError, match="must be finite"):
        cluster_modes(concern, 2, 0)
    with pytest.raises(ValueError, match="must be finite"):
        sweep_cluster_counts(concern, 0, 0.02, lambda cl: 0.0)


@st.composite
def weight_rows(draw):
    """Rows of n = 1..300 k-means++ weights: drawn from a small pool, so
    ties are common, with zeros, subnormals and normals up to 1e300 (every
    row sum stays finite); or one non-zero; or all zero."""
    n = draw(st.integers(1, 300))
    weight = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308),
                       st.floats(2.2e-308, 1e300))
    pool = draw(st.lists(weight, min_size=1, max_size=4))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["pool", "single", "zero"]),
                              min_size=1, max_size=4)):
        row = np.zeros(n)
        if kind == "pool":
            row[:] = draw(st.lists(st.sampled_from(pool), min_size=n,
                                   max_size=n))
        elif kind == "single":
            row[draw(st.integers(0, n - 1))] = draw(st.floats(5e-324, 1e300))
        rows.append(row)
    return np.array(rows)


@given(weight_rows(), st.integers(0, 2**32 - 1))
# p sums to 1 - 1 ulp and the draw falls between the first cumulative
# weight and that weight normalised, as choice normalises it
@example(np.array([[0.9429375528828806, 0.05706244711712061, 0.0]]), 0)
def test_batched_draw_is_choice_draw_for_draw(weights, seed):
    # each row's index, and the generator's next number after it, are those
    # of a lone choice(n, p=w / w.sum()), or integers(n) for a zero row
    children = np.random.SeedSequence(seed).spawn(len(weights))
    batch = [np.random.default_rng(child) for child in children]
    lone = [np.random.default_rng(child) for child in children]
    got = _draw(weights, batch)
    n = weights.shape[1]
    for w, idx, rng, ref in zip(weights, got, batch, lone):
        assert idx == (ref.choice(n, p=w / w.sum()) if w.sum()
                       else ref.integers(n))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("n_r,n,c", [(32, 100, 60), (8, 200, 100),
                                     (32, 300, 3), (32, 100, 1)])
def test_lloyd_batch_holds_two_distance_buffers(n_r, n, c):
    # tracemalloc's peak stays within the two (R, N, C) buffers plus
    # O(R N); measured at most 19 R N doubles beside them.  A third buffer,
    # as a fresh allocation each iteration beside the last one's makes,
    # breaks the bound at C = 60 and 100.
    rng = np.random.default_rng(c)
    pts = rng.standard_normal((n, 2))
    seeds = pts[rng.integers(n, size=(n_r, c))]
    (_, labels, _), peak = traced_peak(lambda: _lloyd_batch(pts, seeds))
    assert labels.shape == (n_r, n)
    assert peak <= (2 * c + 32) * n_r * n * 8


LAM = -5.787 + 58.6407j


@pytest.mark.parametrize("points,members", [
    # three copies of one mode, up to 1 ulp apart, beside a distant mode
    ([LAM, LAM + 7.1e-15j, LAM, -1 + 10j], ((0, 1, 2), (3,))),
    # the tolerance is 1e-9 |10 + 10j| = 1.4e-8
    ([1 + 1j, 1 + 1j + 1e-9, 10 + 10j], ((0, 1), (2,))),
    ([1 + 1j, 1 + 1j + 1e-7, 10 + 10j], ((0,), (1,), (2,))),
    # a chain of 1e-8 steps merges, though its ends are 2e-8 apart
    ([1, 1 + 1e-8, 1 + 2e-8, 10 + 10j], ((0, 1, 2), (3,))),
])
def test_coincident_centres_merge(points, members):
    # C = N: k-means puts every distinct point in a cluster of its own
    concern = concern_from_points(points)
    labels = [next(k for k, group in enumerate(members) if m in group)
              for m in range(len(points))]
    for seed in range(5):
        assert cluster_modes(concern, len(points), seed).labels.tolist() \
            == labels
        assert_matches_serial(concern, len(points), seed)


def test_case_b_bands_match_parameter_groups(case_b):
    cl = cluster_modes(case_b.concern, 3, seed=42)
    truth = ground_truth_groups()
    rows = dict(zip(case_b.fss.wt_order, case_b.fss.kind_rows(("u_dc",))))
    group_sizes = {g: sum(1 for v in truth.values() if v == g)
                   for g in set(truth.values())}
    mpf = full_mpf(case_b.modal)
    seen_labels = []
    for k in range(cl.n_clusters):
        members = np.compress(cl.labels == k, case_b.concern.mode_indices)
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
    for k, centre in enumerate(cl.centres):
        mean = np.mean(case_b.concern.eigenvalues[cl.labels == k])
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
    # the inertia after 1, 2, ... iterations, then at convergence
    trace = [float(_lloyd_batch(pts, centres0[None], max_iter=k)[2][0])
             for k in range(1, 30)]
    trace.append(float(_lloyd_batch(pts, centres0[None])[2][0]))
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


@given(grid_points(), st.integers(0, 2**32 - 1))
# coincident centres merge: one cluster of five copies at c = 4, and three
# distinct modes at c = 5
@example(([(1, 2)] * 5, 4), 7)
@example(([(0, 0), (0, 0), (1, 0), (1, 0), (5, 1)], 5), 3)
def test_labels_are_dense_one_per_concern_mode(points, seed):
    # one int label per concern mode, every label in 0..n_clusters - 1 in
    # use; each centre is np.mean of its labelled modes, bit for bit
    grid, c = points
    concern = concern_from_points([0.37 * x + 1.9j * y for x, y in grid])
    cl = cluster_modes(concern, c, seed)
    assert cl.labels.shape == (len(grid),)
    assert np.issubdtype(cl.labels.dtype, np.integer)
    assert np.array_equal(np.unique(cl.labels), np.arange(cl.n_clusters))
    means = [np.mean(concern.eigenvalues[cl.labels == k])
             for k in range(cl.n_clusters)]
    assert cl.centres.tobytes() == np.array(means).tobytes()


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


# |p - q| <= |p| + |q| keeps every E floor at or below 1, so a target of 1
# skips no C, and an error of 2 rejects a clustering, 0.5 accepts it
NO_SKIP = 1.0


def test_sweep_returns_the_clustering_accept_takes(study_serial):
    concern, expected = study_serial
    for c in expected:
        assert_same_clusters(
            sweep_cluster_counts(
                concern, 42, NO_SKIP,
                lambda cl, c=c: 0.5 if cl.n_clusters == c else 2.0),
            expected[c])


def test_sweep_without_an_accepted_count_gives_one_mode_per_cluster(
        study_serial):
    concern, expected = study_serial
    seen = []

    def reject(cl):
        seen.append(cl.n_clusters)
        return 2.0

    assert_same_clusters(sweep_cluster_counts(concern, 42, NO_SKIP, reject),
                         expected[33])
    assert seen == list(range(1, 34))


def test_sweep_stops_at_the_first_accepted_count(case_b):
    seen = []

    def accept(cl):
        seen.append(cl.n_clusters)
        return 0.5 if cl.n_clusters in (3, 4, 7) else 2.0

    assert sweep_cluster_counts(case_b.concern, 42, NO_SKIP,
                                accept).n_clusters == 3
    assert seen == [1, 2, 3]


def full_scan(concern, seed, e_target):
    """The sweep's reference: `cluster_modes` at C = 1, 2, ... until E
    meets the target, else C = N."""
    for c in range(1, len(concern) + 1):
        clusters = cluster_modes(concern, c, seed)
        if error_E(concern, clusters) <= e_target:
            break
    return clusters


# modes away from zero, each drawn once or repeated exactly
mode_sets = st.lists(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=100.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6).flatmap(lambda pool: st.lists(
        st.sampled_from(pool), min_size=1, max_size=9))


@given(mode_sets, st.one_of(st.sampled_from([1e-3, 0.02, 0.1, 0.3, 1.0]),
                            st.integers(1, 9)),
       st.integers(0, 2**16))
@example([-1 + 10j], 0.02, 0)
@example([-1 + 10j] * 4 + [-1 - 10j] * 2, 0.02, 0)
@example([-1 + 10j, -1 + 20j, -1 + 40j, -1 + 80j], 0.02, 7)
@example([-1 + 10j, -1 + 20j, -1 + 40j, -1 + 80j], 2, 7)
def test_skipping_sweep_returns_the_full_scan(modes, target, seed):
    concern = concern_from_points(modes)
    # an integer target is met exactly by the clustering at that C
    e_target = target if isinstance(target, float) else error_E(
        concern, cluster_modes(concern, min(target, len(modes)), seed))
    assert_same_clusters(
        sweep_cluster_counts(concern, seed, e_target,
                             lambda cl: error_E(concern, cl)),
        astuple_clusters(full_scan(concern, seed, e_target)))


def partitions(concern, c, seed, rng):
    """k-means' partition into c clusters and a random one into at most
    c, each at its members' mean."""
    yield cluster_modes(concern, c, seed)
    # the labels drawn, numbered densely
    _, labels = np.unique(rng.integers(c, size=len(concern)),
                          return_inverse=True)
    centres = np.array([np.mean(concern.eigenvalues[labels == k])
                        for k in range(labels.max() + 1)])
    yield ModeClusters(labels=labels, centres=centres, inertia=0.0)


@given(mode_sets, st.integers(0, 2**16))
def test_error_floors_bound_every_partition(modes, seed):
    concern = concern_from_points(modes)
    floors = farthest_first_floors(concern)
    assert len(floors) == len(modes) - 1
    rng = np.random.default_rng(seed)
    for c in range(1, len(modes)):
        for clusters in partitions(concern, c, seed, rng):
            assert error_E(concern, clusters) >= floors[c - 1] * (1 - 1e-12)


@given(mode_sets, st.sampled_from([1e-3, 0.02, 0.1, 0.3, 1.0]))
# coincident zero modes: their distance is nan, as is every floor after
@example([0j, 0j, 1 + 1j, -1 + 1j], 0.3)
@example([1 + 1j, 0j, 0j, -1 + 1j], 0.3)
# index order and degree order each find 3 modes, farthest first 4
@example([-1 + 16.3j, -1 + 7.1j, -1 + 2j, -1 + 2.8j, -1 + 1.7j, -1 + 1.5j,
          -1 + 4.2j, -1 + 8.3j, -1 + 15.3j], 0.3)
def test_far_set_outnumbers_the_floors_above_the_target(modes, e_target):
    # so the far set alone skips every C whose farthest-first floor
    # exceeds the target
    concern = concern_from_points(modes)
    gap = e_target * (1 + FLOOR_RTOL)
    floors = farthest_first_floors(concern)
    assert _far_set_size(concern, gap) >= 1 + np.count_nonzero(floors > gap)


def test_sweep_keeps_a_count_whose_error_equals_its_floor():
    # a conjugate pair's centre is its real part, so at C = 1 E equals the
    # floor |p - q| / (|p| + |q|) but for roundoff
    rng = np.random.default_rng(11)
    for p in rng.uniform(-10, 0, 200) + 1j * rng.uniform(0.1, 50, 200):
        concern = concern_from_points([p, p.conjugate()])
        e_target = error_E(concern, cluster_modes(concern, 1, 3))
        assert sweep_cluster_counts(
            concern, 3, e_target,
            lambda cl: error_E(concern, cl)).n_clusters == 1


def test_sweep_skips_counts_whose_floor_exceeds_the_target():
    # each mode at least 1/3 from the others: no C < 4 can meet 2%
    concern = concern_from_points([-1 + 10j, -1 + 20j, -1 + 40j, -1 + 80j])
    seen = []

    def error(cl):
        seen.append(cl.n_clusters)
        return error_E(concern, cl)

    assert sweep_cluster_counts(concern, 7, 0.02, error).n_clusters == 4
    assert seen == [4]


@given(mode_sets, st.sampled_from([1e-3, 0.02, 0.1, 0.3, 1.0]),
       st.integers(0, 2**16))
@example([-1 + 10j, -1 + 20j, -1 + 40j, -1 + 80j], 0.02, 7)
def test_far_set_rules_out_every_smaller_count(modes, e_target, seed):
    concern = concern_from_points(modes)
    far = _far_set_size(concern, e_target * (1 + FLOOR_RTOL))
    rng = np.random.default_rng(seed)
    for c in range(1, far):
        for clusters in partitions(concern, c, seed, rng):
            assert error_E(concern, clusters) > e_target


def test_far_sets_cut_the_benchmark_sweep():
    # the four seed-7 farms of the auto_sweep100 benchmark at its 2% target
    # and the CLI's seed: E is evaluated 92 times in all, against 106 with
    # the farthest-first floors alone, and the sweep stops where it did
    calls, chosen = [], []
    for k in range(4):
        farm = ladder_farm(10, 10, (7, k), planted=False)
        concern = solve_modes(farm, solve_powerflow(farm)).concern

        def error(cl, concern=concern):
            calls.append(cl.n_clusters)
            return error_E(concern, cl)
        chosen.append(sweep_cluster_counts(concern, 42, 0.02, error)
                      .n_clusters)
    assert chosen == [56, 67, 62, 53]
    assert len(calls) == 92


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
                          if not np.array_equal(got.labels, fresh[c].labels)
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
    assert cl.labels.tolist() == [0, 1, 0, 1]
    assert_matches_serial(concern, 2, seed=5, n_restarts=8)


def test_fixed_seed_is_deterministic(case_b):
    c1 = cluster_modes(case_b.concern, 3, seed=123)
    c2 = cluster_modes(case_b.concern, 3, seed=123)
    assert np.array_equal(c1.labels, c2.labels)
    assert np.array_equal(c1.centres, c2.centres)
    assert c1.inertia == c2.inertia


# ---------------------------------------------------------------------------
# superposition


def test_single_cluster_sums_whole_row(case_a):
    cl = cluster_modes(case_a.concern, 1, seed=42)
    ft = superimpose_mpf(case_a.model, cl)
    mpf = full_mpf(case_a.modal)
    assert ft.wt_ids == case_a.fss.wt_order
    for r, wt in enumerate(ft.wt_ids):
        row = case_a.fss.labels.index((wt, "u_dc"))
        total = sum(mpf[row, m]
                    for m in case_a.concern.mode_indices)
        assert abs(ft.table[r, 0] - total) < 1e-12


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_row_totals_conserved_across_cluster_count(case_b, c):
    ft = superimpose_mpf(case_b.model,
                         cluster_modes(case_b.concern, c, seed=42))
    full = superimpose_mpf(case_b.model,
                           cluster_modes(case_b.concern, 1, seed=42))
    assert np.abs(ft.table.sum(axis=1) - full.table[:, 0]).max() < 1e-10


@pytest.fixture(scope="module")
def ladder10x10():
    return SolvedFarm(ladder_farm(10, 10, 7))


@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c", "case_d",
                                  "ladder10x10"])
def test_superposition_sums_each_cluster_like_python_sum(request, name):
    solved = request.getfixturevalue(name)
    for c in (1, 3, 7):
        clusters = cluster_modes(solved.concern, c, seed=42)
        assert superimpose_mpf(solved.model, clusters).table.tobytes() \
            == superimposed_mpf_by_sum(solved.model, clusters).tobytes()


def test_identical_decoupled_wts_split_symmetrically():
    from wfdem.cases import identical_zero_network_farm
    from wfdem.modal import solve_modes
    from wfdem.powerflow import solve_powerflow

    farm = identical_zero_network_farm(2, p_m0=0.9)
    model = solve_modes(farm, solve_powerflow(farm))
    cl = cluster_modes(model.concern, 2, seed=42)
    assert cl.n_clusters == 1
    ft = superimpose_mpf(model, cl)
    totals = ft.table.sum(axis=1)
    assert np.abs(totals - totals[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# grouping


def test_equal_features_collapse_to_one_group():
    table = np.array([[0.5 + 0j, 0.5 + 0j]] * 4)
    ft = FeatureTable(wt_ids=("w1", "w2", "w3", "w4"), table=table)
    with pytest.warns(UserWarning, match="^2 mode clusters vs 1 WT groups: "
                      "no WT peaks in cluster 1$"):
        assert group_wts(ft, tau=0.1).n_groups == 1


def test_near_equal_features_merge_across_argmax_split():
    # dominance splits the WTs over both clusters, but the centroids are
    # within tau of each other, so the merge rule collapses them
    table = np.array([[0.501, 0.499], [0.499, 0.501]], dtype=complex)
    ft = FeatureTable(wt_ids=("w1", "w2"), table=table)
    with pytest.warns(UserWarning, match="^2 mode clusters vs 1 WT groups "
                      "after merging cluster 1 into 0$"):
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
    with pytest.warns(UserWarning, match="^2 mode clusters vs 1 WT groups: "
                      "no WT peaks in cluster 0$"):
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
    # no merging, inspect raw margins; both WTs peak in cluster 0
    with pytest.warns(UserWarning, match="^2 mode clusters vs 1 WT groups: "
                      "no WT peaks in cluster 1$"):
        groups = group_wts(ft, tau=0.0)
    assert groups.group_of["tied"] == 0          # argmax tie -> first cluster
    assert groups.margins["tied"] == 0.0
    assert groups.margins["clear"] > 0.5


def test_group_warning_names_merges_and_idle_clusters():
    # w1 and w2 peak in clusters 0 and 1, whose groups merge; none in 2
    table = np.array([[0.501, 0.499, 0.0], [0.499, 0.501, 0.0]],
                     dtype=complex)
    ft = FeatureTable(wt_ids=("w1", "w2"), table=table)
    with pytest.warns(UserWarning, match="^3 mode clusters vs 1 WT groups "
                      "after merging cluster 1 into 0; "
                      "no WT peaks in cluster 2$"):
        assert group_wts(ft).merged == ((0, 1),)


def test_as_many_groups_as_clusters_do_not_warn():
    table = np.array([[0.9, 0.1], [0.1, 0.9]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        groups = group_wts(FeatureTable(wt_ids=("w1", "w2"), table=table))
    assert groups.n_groups == 2


def test_grouping_invariant_under_positive_rescale(case_b):
    _, features, groups = case_b.clustered(3)
    scaled = FeatureTable(wt_ids=features.wt_ids,
                          table=3.7 * features.table)
    assert group_wts(scaled).group_of == groups.group_of


def feature_table(rows) -> FeatureTable:
    table = np.array(rows, dtype=complex)
    return FeatureTable(wt_ids=tuple(f"w{k:02d}" for k in range(len(table))),
                        table=table)


def assert_groups_equal_the_oracle(features: FeatureTable, tau: float):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = group_wts(features, tau)
    want = group_wts_by_rounds(features, tau)
    assert got.group_of == want.group_of
    assert got.margins == want.margins
    assert got.merged == want.merged


@given(st.integers(1, 6).flatmap(lambda c: st.lists(
           st.lists(st.integers(0, 3), min_size=c, max_size=c),
           min_size=1, max_size=12)),
       st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0]),
       st.sampled_from([1.0, 0.1, 3.7]))
# equal pair distances: the first pair in (a, b) order merges first
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2.0, 1.0)
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
          [2, 0, 0, 0], [0, 2, 0, 0]], 1.0, 0.1)
# all-zero features: no norm, so every distance is 0
@example([[0, 0], [0, 0], [0, 0]], 0.1, 1.0)
def test_merges_equal_the_round_by_round_oracle(rows, tau, scale):
    assert_groups_equal_the_oracle(feature_table(np.array(rows) * scale),
                                   tau)


def test_benchmark_groupings_equal_the_round_by_round_oracle():
    # the four seed-7 farms of the auto_sweep100 benchmark, as the CLI
    # clusters them; no group merges at GROUP_TAU, and at tau = 1.4 the
    # 53-67 groups of each table merge, one pair a round, into one
    for k in range(4):
        farm = ladder_farm(10, 10, (7, k), planted=False)
        model = solve_modes(farm, solve_powerflow(farm))
        clusters = sweep_cluster_counts(
            model.concern, 42, 0.02,
            lambda cl, c=model.concern: error_E(c, cl))
        features = superimpose_mpf(model, clusters)
        for tau in (GROUP_TAU, 1.4):
            assert_groups_equal_the_oracle(features, tau)
        assert not group_wts(features).merged
        with pytest.warns(UserWarning, match=" vs 1 WT groups after "):
            assert group_wts(features, 1.4).n_groups == 1


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
    assert lines[0] == "wt_id," + ",".join(
        f"cluster{c}_{part}" for c in range(3) for part in ("re", "im"))
