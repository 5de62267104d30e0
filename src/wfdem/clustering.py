"""Complex-plane mode clustering, MPF superposition, and WT grouping.

Modes are clustered on raw (Re, Im) coordinates.  Each cluster's member
participation factors are superimposed per WT-representative state, giving a
per-WT feature vector whose dominant entry assigns the WT to a group; groups
whose centroid features nearly coincide are merged, which is what turns
"clusters of modes" into "groups of machines".  The grouping decides the
WT group count, so it warns when that count falls short of the cluster
count; the DEM is built from the grouping alone.

A partition is one cluster label per concern mode, in concern order.
k-means runs its `N_RESTARTS` restarts together as array operations, each
restart on its own seed generator; the restart count and the merge
threshold `GROUP_TAU` are fixed constants.  The `--auto-clusters` sweep
carries every restart's k-means++ seeds from one C to the next and
clusters no C below the size of one greedy set of modes too far apart to
share a cluster.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .gridcsv import write_grid, write_json
from .modal import ConcernSet, FarmModel, ModeCountError

# dominance margin below which groups.json lists a WT as low-margin
LOW_MARGIN = 0.1
# relative centroid distance below which two WT groups merge
GROUP_TAU = 0.1
# k-means restarts per clustering, each seeded by its own child generator
N_RESTARTS = 32
# distance, relative to the largest |mode|, within which cluster centres
# coincide and merge
COINCIDENT_RTOL = 1e-9
# relative margin by which two modes' distance must exceed the target
# before the --auto-clusters sweep counts them as too far apart to share a
# cluster; covers the roundoff of both sides
FLOOR_RTOL = 1e-12


@dataclass(frozen=True)
class ModeClusters:
    """Partition of the concern set: `labels[i]` is the cluster of the
    concern's i-th mode, aligned with `ConcernSet.mode_indices`."""

    labels: np.ndarray           # int, one per concern mode
    centres: np.ndarray          # complex, one per cluster
    inertia: float

    @property
    def n_clusters(self) -> int:
        return len(self.centres)


def _points(concern: ConcernSet) -> tuple[np.ndarray, int]:
    """The concern modes' (Re, Im) rows (N, 2) times 2**-shift, and shift.

    Every squared distance k-means forms, and every sum of N of them, stays
    below 8 N max|x|², since each centre is a mean of points; the shift is
    the least that keeps that bound under 2**1022, so nothing overflows.  A
    power of two scales every distance exactly (but for a coordinate that it
    pushes below 2**-1022), so the partition is the one an unbounded
    exponent would give.  For any farm's modes the shift is 0 and the rows
    keep their bits.  A mode that is not finite is refused: its weights
    would silently steer the k-means++ draws.
    """
    lam = concern.eigenvalues
    pts = np.c_[lam.real, lam.imag]
    if not np.isfinite(pts).all():
        raise ValueError("concern modes must be finite to cluster")
    big = np.abs(pts).max(initial=0.0)
    shift = max(0, int(np.frexp(big)[1])
                + int(np.frexp(np.sqrt(8 * len(pts)))[1]) - 511)
    return np.ldexp(pts, -shift), shift


def _sqdist(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray,
            out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared distances (x - cx)² + (y - cy)², broadcast, into `out`;
    `tmp` is scratch of the same shape.

    dx² + dy² equals the sum of (p - c)² over the coordinate axis bit for
    bit, and filling the caller's buffers allocates nothing.
    """
    np.subtract(x, cx, out=out)
    np.multiply(out, out, out=out)
    np.subtract(y, cy, out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    return np.add(out, tmp, out=out)


def _draw(weights: np.ndarray, rngs: list[np.random.Generator]
          ) -> np.ndarray:
    """One index per row of `weights` (R, N), row r drawn by `rngs[r]`.

    Row w gives what `rngs[r].choice(N, p=w / w.sum())` gives, from the
    same single `random()` call, and leaves the generator in the same
    state: every row's cumulative weights at once, normalised as `choice`
    normalises them, and its right-sided `searchsorted` as a count.  A row
    that sums to 0 draws `rngs[r].integers(N)` instead.
    """
    totals = weights.sum(axis=1)
    zero = totals == 0
    with np.errstate(invalid="ignore"):         # 0 / 0 in the zero rows
        cdf = np.cumsum(weights / totals[:, None], axis=1)
        cdf /= cdf[:, -1:]
    u = np.array([np.nan if z else rng.random()
                  for rng, z in zip(rngs, zero.tolist())])
    # searchsorted(cdf, u, side="right") on a non-decreasing cdf
    idx = (cdf <= u[:, None]).sum(axis=1)
    for r in np.flatnonzero(zero):
        idx[r] = rngs[r].integers(weights.shape[1])
    return idx


def _seed_prefixes(pts: np.ndarray, seed: int, n_restarts: int
                   ) -> Iterator[np.ndarray]:
    """The first c k-means++ seeds of every restart, (R, c, 2), for
    c = 1, 2, ..., N in turn; views whose rows are never rewritten.

    Restart r draws only from its own child generator, in the order a lone
    restart would (one `integers`, then one `choice` per further centre),
    so batching changes no draw: `_draw` takes every restart's next centre
    at once, each from its own generator.  k-means++ is sequential, so
    each prefix is exact, and a centre is drawn only when its prefix is
    asked for.  `d2` holds each point's squared distance to its nearest
    drawn centre and is lowered against the newest one only.
    """
    n = len(pts)
    rngs = [np.random.default_rng(child) for child in
            np.random.SeedSequence(seed).spawn(n_restarts)]
    seeds = np.empty((n_restarts, n, 2))
    seeds[:, 0] = pts[[rng.integers(n) for rng in rngs]]
    yield seeds[:, :1]
    d2 = np.full((n_restarts, n), np.inf)
    new, tmp = np.empty_like(d2), np.empty_like(d2)
    for k in range(1, n):
        newest = seeds[:, k - 1, :, None]
        _sqdist(pts[:, 0], pts[:, 1], newest[:, 0], newest[:, 1], new, tmp)
        np.minimum(d2, new, out=d2)
        seeds[:, k] = pts[_draw(d2, rngs)]
        yield seeds[:, :k + 1]


def _revive_empty(d2: np.ndarray, labels: np.ndarray, c: int) -> None:
    """Move the worst-assigned point into each empty cluster, in place,
    never emptying another cluster in the process."""
    rows = np.arange(len(labels))
    for k in range(c):
        if not np.any(labels == k):
            counts = np.bincount(labels, minlength=c)
            movable = counts[labels] > 1
            if not movable.any():
                continue
            dist = np.where(movable, d2[rows, labels], -np.inf)
            labels[int(np.argmax(dist))] = k


def _lloyd_batch(pts: np.ndarray, centres: np.ndarray, max_iter: int = 200,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iteration on R restarts at once.

    `centres` is (R, C, 2); returns centres (R, C, 2), labels (R, N) and
    inertia (R,).  Each restart follows its own schedule: assign, revive
    empty clusters, stop as soon as its labels repeat (before moving its
    centres), else move each centre to its members' mean.  The means are
    per-(restart, cluster) bincount sums in point order, which equal the
    sequential axis-0 sums of `pts[labels == k].mean(axis=0)`.  The
    distances of the restarts still moving fill the front of two (R, N, C)
    buffers that the call allocates once, from each centre coordinate kept
    C-contiguous; each restart's inertia is its lone flat sum of squares.
    """
    n_r, c, _ = centres.shape
    n = len(pts)
    cx, cy = centres[..., 0].astype(float), centres[..., 1].astype(float)
    # bincount weights: the point coordinates once per restart
    wx, wy = np.tile(pts[:, 0], n_r), np.tile(pts[:, 1], n_r)
    d2_buf, dy_buf = np.empty((n_r, n, c)), np.empty((n_r, n, c))
    labels = np.full((n_r, n), -1)
    active = np.arange(n_r)
    for _ in range(max_iter):
        if active.size == 0:
            break
        n_a = len(active)
        d2 = _sqdist(pts[:, :1], pts[:, 1:], cx[active, None],
                     cy[active, None], d2_buf[:n_a], dy_buf[:n_a])
        new_labels = d2.argmin(axis=2)
        offsets = c * np.arange(n_a)[:, None]
        counts = np.bincount((new_labels + offsets).ravel(),
                             minlength=n_a * c).reshape(-1, c)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            _revive_empty(d2[a], new_labels[a], c)
        moved = (new_labels != labels[active]).any(axis=1)
        active, new_labels = active[moved], new_labels[moved]
        labels[active] = new_labels

        n_a = len(active)
        flat = (new_labels + offsets[:n_a]).ravel()
        counts = np.bincount(flat, minlength=n_a * c).reshape(-1, c)
        for coord, w in ((cx, wx), (cy, wy)):
            sums = np.bincount(flat, weights=w[:n_a * n],
                               minlength=n_a * c).reshape(-1, c)
            coord[active] = np.where(counts > 0, sums / np.maximum(counts, 1),
                                     coord[active])
    centres = np.stack((cx, cy), axis=-1)
    sq = pts - centres[np.arange(n_r)[:, None], labels]
    sq *= sq
    return centres, labels, sq.reshape(n_r, -1).sum(axis=1)


def _best_clustering(concern: ConcernSet, pts: np.ndarray, shift: int,
                     seeds: np.ndarray) -> ModeClusters:
    """Lloyd from each restart's seeds (R, c, 2); the best, canonical.

    `pts` and `seeds` are scaled by 2**-shift (`_points`).  Centres within
    `COINCIDENT_RTOL` max|lam| of each other, directly or through a chain
    of such centres, merge into the first of them in canonical order, so
    fewer than c clusters may come back.  Only the participation summed
    over all copies of a repeated eigenvalue is independent of the
    eigenvector basis, so such copies must share a cluster.  `inertia`
    stays that of the Lloyd solution, at the modes' own scale (inf past the
    largest float).
    """
    all_centres, all_labels, all_inertia = _lloyd_batch(pts, seeds)
    tied = np.flatnonzero(all_inertia == all_inertia.min())
    best = min(tied, key=lambda r: tuple(sorted(map(tuple, all_centres[r]))))
    centres, labels = all_centres[best], all_labels[best]
    with np.errstate(over="ignore"):
        inertia = float(np.ldexp(all_inertia[best], 2 * shift))

    order = np.lexsort((centres[:, 1], centres[:, 0]))   # by (Re, Im)
    cx = centres[order, 0] + 1j * centres[order, 1]
    near = np.abs(cx[:, None] - cx) <= np.ldexp(
        COINCIDENT_RTOL * np.abs(concern.eigenvalues).max(), -shift)
    while not np.array_equal(reach := near @ near, near):
        near = reach                    # chains of coincident centres
    first = near.argmax(axis=1)         # canonical index of each merged set
    # the merged sets numbered densely, in canonical order; each centre is
    # its modes' exact mean, as np.mean takes it
    sets, labels = np.unique(first[np.argsort(order)[labels]],
                             return_inverse=True)
    lam = concern.eigenvalues
    centres = np.array([lam[labels == k].sum() for k in range(len(sets))])
    return ModeClusters(labels=labels, centres=centres / np.bincount(labels),
                        inertia=inertia)


def cluster_modes(concern: ConcernSet, c: int, seed: int) -> ModeClusters:
    """Seeded k-means over the concern representatives.

    All `N_RESTARTS` restarts run together as array operations.  Each
    restart keeps its own child seed spawned from `seed` and draws its
    k-means++ seeds from it, so the batch reproduces running the restarts
    one by one, in any order; the lowest inertia wins and exact ties fall
    back to lexicographic centre order.  Cluster indices are canonical:
    sorted by centre (Re, Im).  Coincident centres merge, so `n_clusters`
    may be below c.  Each call draws its own seeds and shares no state with
    any other call.
    """
    pts, shift = _points(concern)
    if not 1 <= c <= len(pts):
        raise ModeCountError(f"cluster count {c} not in [1, {len(pts)}]")
    seeds = next(itertools.islice(_seed_prefixes(pts, seed, N_RESTARTS),
                                  c - 1, None))
    return _best_clustering(concern, pts, shift, seeds)


def _far_set_size(concern: ConcernSet, gap: float) -> int:
    """The size of a set of concern modes whose every pair lies more than
    `gap` apart under the distance |p - q| / (|p| + |q|).

    Two modes p, q that share a centre c give E >= |p - q| / (|p| + |q|),
    since |p - q| <= |p - c| + |q - c|; so each mode of the set needs a
    cluster of its own before E can reach `gap`.  The set is taken
    greedily, in descending order of how many modes lie that far from
    each.  Coincident zero modes give nan, which is never far.
    """
    lam = concern.eigenvalues
    mag = np.abs(lam)
    with np.errstate(invalid="ignore"):
        far = np.abs(lam[:, None] - lam) / (mag[:, None] + mag) > gap
    free, size = np.ones(len(lam), dtype=bool), 0
    for i in np.argsort(-far.sum(axis=1), kind="stable"):
        if free[i]:
            size += 1
            free &= far[i]
    return size


def sweep_cluster_counts(concern: ConcernSet, seed: int, e_target: float,
                         error: Callable[[ModeClusters], float],
                         ) -> ModeClusters:
    """Clusters at the smallest C = 1, 2, ... whose centre error
    `error(clusters)` is at most `e_target`, else C = N.

    `error` is E on `concern` (`validation.error_E`).  A C cannot pass and
    is not clustered when it is below the size of the greedy set of modes
    whose every pair lies more than `e_target` (plus `FLOOR_RTOL`) apart
    (`_far_set_size`): two of them would share a cluster.  Any such set
    gives a valid floor, so the set changes which C are skipped, never the
    result.  `error` sees the other clusterings in ascending C, each equal
    to `cluster_modes(concern, C, seed)`, and none after the first that
    passes.  One seed generator serves every C, skipped ones too, so each
    C draws one new centre per restart.
    """
    pts, shift = _points(concern)
    if not len(pts):
        raise ModeCountError("no concern modes to cluster")
    far = _far_set_size(concern, e_target * (1 + FLOOR_RTOL))
    for c, seeds in enumerate(_seed_prefixes(pts, seed, N_RESTARTS), 1):
        if c < far:
            continue
        clusters = _best_clustering(concern, pts, shift, seeds)
        if error(clusters) <= e_target:
            break
    return clusters


# ---------------------------------------------------------------------------
# feature vectors


@dataclass(frozen=True)
class FeatureTable:
    """Superimposed MPFs: one row per WT-representative state, one column
    per mode cluster."""

    wt_ids: tuple[str, ...]
    table: np.ndarray            # complex (n_wt, n_clusters)


def superimpose_mpf(model: FarmModel,
                    clusters: ModeClusters) -> FeatureTable:
    """Sum each WT's representative-state MPFs over every cluster's modes.

    The model's `mpf` block holds those MPFs, one row per WT in `wt_order`
    and one column per concern mode.  Each column is added, in concern
    order, into its cluster's column of a zero table: each row's sum over a
    cluster in the order a Python `sum` over its modes takes it.
    """
    table = np.zeros((len(model.mpf), clusters.n_clusters), dtype=complex)
    for col, k in zip(model.mpf.T, clusters.labels):
        table[:, k] += col
    return FeatureTable(wt_ids=model.fss.wt_order, table=table)


@dataclass(frozen=True)
class GroupAssignment:
    group_of: dict[str, int]         # WT id -> dense group id
    margins: dict[str, float]        # dominance margin per WT, in [0, 1]
    merged: tuple[tuple[int, int], ...]   # (kept, absorbed) cluster-group pairs

    @property
    def n_groups(self) -> int:
        return len(set(self.group_of.values()))


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of `x`, as `np.linalg.norm` forms it: the
    square root of the row's dot product with itself, summed by the same
    BLAS dot, so bit for bit."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _relative_distances(centroids: np.ndarray, norms: np.ndarray,
                        a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|c_a - c_b| / max(|c_a|, |c_b|) for each pair of rows a, b, 0 where
    both norms are 0, each as the scalar expression gives it."""
    denom = np.maximum(norms[a], norms[b])
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = _norms(centroids[a] - centroids[b]) / denom
    return np.where(denom == 0, 0.0, dist)


def group_wts(features: FeatureTable) -> GroupAssignment:
    """Assign each WT to its dominant cluster, then merge look-alike groups.

    Grouping works on feature magnitudes.  Two groups merge when their
    centroid feature vectors differ by less than `GROUP_TAU` relative to the
    larger centroid norm.  The margin is (top - second) / top over |F_kc|;
    with a single cluster it is 1 by convention.  Fewer groups than clusters warn
    "k mode clusters vs m WT groups", naming the merges and the clusters
    that no WT peaks in.
    """
    mags = np.abs(features.table)
    n_wt, n_c = mags.shape
    raw = mags.argmax(axis=1)
    if n_c == 1:
        margins = np.ones(n_wt)
    else:
        part = np.sort(mags, axis=1)
        top, second = part[:, -1], part[:, -2]
        margins = np.where(top > 0, (top - second) / np.where(top > 0, top, 1.0), 0.0)

    # closest-pair merging on group centroids; each round forms every live
    # group's centroid and every live pair's distance afresh
    alive = sorted(set(raw.tolist()))
    assign = raw.copy()
    merged: list[tuple[int, int]] = []
    while len(alive) > 1:
        centroids = np.array([mags[assign == g].mean(axis=0) for g in alive])
        # the first closest pair in (a, b) order, a < b
        first, second = np.triu_indices(len(alive), 1)
        pairs = _relative_distances(centroids, _norms(centroids), first,
                                    second)
        best = int(np.argmin(pairs))
        if pairs[best] >= GROUP_TAU:
            break
        ga, gb = alive[first[best]], alive[second[best]]
        assign[assign == gb] = ga
        merged.append((ga, gb))
        alive.remove(gb)

    idle = sorted(set(range(n_c)) - set(raw.tolist()))
    if merged or idle:
        note = f"{n_c} mode clusters vs {len(alive)} WT groups"
        if merged:
            note += " after merging " + ", ".join(
                f"cluster {b} into {a}" for a, b in merged)
        if idle:
            note += ("; " if merged else ": ") + "no WT peaks in cluster " \
                + ", ".join(map(str, idle))
        warnings.warn(note, stacklevel=2)

    # dense ids in order of first appearance over the WT list
    remap: dict[int, int] = {}
    for g in assign:
        if g not in remap:
            remap[int(g)] = len(remap)
    group_of = {wt: remap[int(g)] for wt, g in zip(features.wt_ids, assign)}
    return GroupAssignment(
        group_of=group_of,
        margins={wt: float(m) for wt, m in zip(features.wt_ids, margins)},
        merged=tuple(merged),
    )


# ---------------------------------------------------------------------------
# artifacts


def write_features_csv(features: FeatureTable, path: str | Path) -> None:
    """F_kc as Re, Im columns per cluster c, one row per WT; |F_kc| is
    `hypot(re, im)`."""
    write_grid(path, [f"cluster{c}" for c in range(features.table.shape[1])],
               features.table, labels=("wt_id", features.wt_ids))


def write_groups_json(groups: GroupAssignment, path: str | Path) -> None:
    doc = {
        "assignment": groups.group_of,
        "margins": groups.margins,
        "low_margin_wts": sorted(
            wt for wt, m in groups.margins.items() if m < LOW_MARGIN),
        "merge_log": [list(pair) for pair in groups.merged],
        "n_groups": groups.n_groups,
    }
    write_json(path, doc)
