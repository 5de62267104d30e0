"""Complex-plane mode clustering, MPF superposition, and WT grouping.

Modes are clustered on raw (Re, Im) coordinates.  Each cluster's member
participation factors are superimposed per WT-representative state, giving a
per-WT feature vector whose dominant entry assigns the WT to a group; groups
whose centroid features nearly coincide are merged, which is what turns
"clusters of modes" into "groups of machines".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .gridcsv import write_grid
from .modal import ConcernSet, ModalSolution

# dominance margin below which groups.json lists a WT as low-margin
LOW_MARGIN = 0.1
# relative centroid distance below which two WT groups merge
GROUP_TAU = 0.1
# k-means restarts per clustering, each seeded by its own child generator
N_RESTARTS = 32


@dataclass(frozen=True)
class ModeClusters:
    """Partition of the concern set; members hold global mode indices."""

    members: tuple[tuple[int, ...], ...]
    centres: np.ndarray          # complex, one per cluster
    inertia: float

    @property
    def n_clusters(self) -> int:
        return len(self.members)


def _sqdist(pts: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances (R, N, C) from points (N, 2) to centres (R, C, 2).

    dx² + dy² equals the sum of (p - c)² over the coordinate axis bit for
    bit, without an (R, N, C, 2) temporary.
    """
    d2 = pts[None, :, None, 0] - centres[:, None, :, 0]
    d2 *= d2
    dy = pts[None, :, None, 1] - centres[:, None, :, 1]
    dy *= dy
    d2 += dy
    return d2


def _inertia(pts: np.ndarray, centres: np.ndarray,
             labels: np.ndarray) -> float:
    return float(((pts - centres[labels]) ** 2).sum())


def _seed_prefixes(pts: np.ndarray, seed: int, n_restarts: int
                   ) -> Iterator[np.ndarray]:
    """The first c k-means++ seeds of every restart, (R, c, 2), for
    c = 1, 2, ..., N in turn; views whose rows are never rewritten.

    Restart r draws only from its own child generator, in the order a lone
    restart would (one `integers`, then one `choice` per further centre),
    so batching changes no draw.  k-means++ is sequential, so each prefix
    is exact, and a centre is drawn only when its prefix is asked for.
    `d2` holds each point's squared distance to its nearest drawn centre
    and is lowered against the newest one only.
    """
    n = len(pts)
    rngs = [np.random.default_rng(child) for child in
            np.random.SeedSequence(seed).spawn(n_restarts)]
    seeds = np.empty((n_restarts, n, 2))
    seeds[:, 0] = pts[[rng.integers(n) for rng in rngs]]
    yield seeds[:, :1]
    d2 = np.full((n_restarts, n), np.inf)
    for k in range(1, n):
        d2 = np.minimum(d2, _sqdist(pts, seeds[:, k - 1:k])[..., 0])
        for r, rng in enumerate(rngs):
            total = d2[r].sum()
            if total == 0:
                seeds[r, k] = pts[rng.integers(n)]
            else:
                seeds[r, k] = pts[rng.choice(n, p=d2[r] / total)]
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


def _lloyd_batch(pts: np.ndarray, centres: np.ndarray,
                 trace: list[list[float]] | None = None,
                 max_iter: int = 200,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iteration on R restarts at once.

    `centres` is (R, C, 2); returns centres (R, C, 2), labels (R, N) and
    inertia (R,).  Each restart follows its own schedule: assign, revive
    empty clusters, stop as soon as its labels repeat (before moving its
    centres), else move each centre to its members' mean.  The means are
    per-(restart, cluster) bincount sums in point order, which equal the
    sequential axis-0 sums of `pts[labels == k].mean(axis=0)`.  `trace`, if
    given, holds one list per restart and receives that restart's inertia
    at every iteration it runs.
    """
    centres = np.array(centres, dtype=float)
    n_r, c, _ = centres.shape
    n = len(pts)
    labels = np.full((n_r, n), -1)
    active = np.arange(n_r)
    for _ in range(max_iter):
        if active.size == 0:
            break
        d2 = _sqdist(pts, centres[active])
        new_labels = d2.argmin(axis=2)
        offsets = c * np.arange(len(active))[:, None]
        counts = np.bincount((new_labels + offsets).ravel(),
                             minlength=len(active) * c).reshape(-1, c)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            _revive_empty(d2[a], new_labels[a], c)
        if trace is not None:
            for a, r in enumerate(active):
                trace[r].append(_inertia(pts, centres[r], new_labels[a]))
        moved = (new_labels != labels[active]).any(axis=1)
        active, new_labels = active[moved], new_labels[moved]
        labels[active] = new_labels

        flat = (new_labels + offsets[:len(active)]).ravel()
        size = len(active) * c
        counts = np.bincount(flat, minlength=size).reshape(-1, c, 1)
        sums = np.stack([
            np.bincount(flat, weights=np.tile(pts[:, j], len(active)),
                        minlength=size) for j in (0, 1)], axis=-1)
        means = sums.reshape(-1, c, 2) / np.maximum(counts, 1)
        centres[active] = np.where(counts > 0, means, centres[active])
    inertia = np.array([_inertia(pts, centres[r], labels[r])
                        for r in range(n_r)])
    return centres, labels, inertia


def _best_clustering(concern: ConcernSet, pts: np.ndarray,
                     seeds: np.ndarray) -> ModeClusters:
    """Lloyd from each restart's seeds (R, c, 2); the best, canonical."""
    c = seeds.shape[1]
    all_centres, all_labels, all_inertia = _lloyd_batch(pts, seeds)
    tied = np.flatnonzero(all_inertia == all_inertia.min())
    best = min(tied, key=lambda r: tuple(sorted(map(tuple, all_centres[r]))))
    centres, labels = all_centres[best], all_labels[best]
    inertia = float(all_inertia[best])

    order = sorted(range(c), key=lambda k: (centres[k, 0], centres[k, 1]))
    members = tuple(
        tuple(concern.mode_indices[p] for p in np.flatnonzero(labels == k))
        for k in order)
    # exact member means in the canonical order
    centre_cx = np.array([
        complex(np.mean(concern.eigenvalues[labels == k]))
        for k in order])
    return ModeClusters(members=members, centres=centre_cx,
                        inertia=inertia)


def cluster_modes(concern: ConcernSet, c: int, seed: int,
                  n_restarts: int = N_RESTARTS) -> ModeClusters:
    """Seeded k-means over the concern representatives.

    All restarts run together as array operations.  Each restart keeps its
    own child seed spawned from `seed` and draws its k-means++ seeds from
    it, so the batch reproduces running the restarts one by one, in any
    order; the lowest inertia wins and exact ties fall back to
    lexicographic centre order.  Cluster indices are canonical: sorted by
    centre (Re, Im).  Each call draws its own seeds and shares no state
    with any other call.
    """
    pts = np.c_[concern.eigenvalues.real, concern.eigenvalues.imag]
    if not 1 <= c <= len(pts):
        raise ValueError(f"cluster count {c} not in [1, {len(pts)}]")
    seeds = next(itertools.islice(_seed_prefixes(pts, seed, n_restarts),
                                  c - 1, None))
    return _best_clustering(concern, pts, seeds)


def sweep_cluster_counts(concern: ConcernSet, seed: int,
                         accept: Callable[[ModeClusters], bool],
                         ) -> ModeClusters:
    """Clusters at the smallest C = 1, 2, ... that `accept` takes, else C = N.

    `accept` sees the clusterings in ascending C, each equal to
    `cluster_modes(concern, C, seed)`, and none after it first returns
    True.  One seed generator serves every C, so each C draws one new
    centre per restart.
    """
    pts = np.c_[concern.eigenvalues.real, concern.eigenvalues.imag]
    if not len(pts):
        raise ValueError("no concern modes to cluster")
    for seeds in _seed_prefixes(pts, seed, N_RESTARTS):
        clusters = _best_clustering(concern, pts, seeds)
        if accept(clusters):
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


def superimpose_mpf(sol: ModalSolution, clusters: ModeClusters,
                    rep_rows: dict[str, int]) -> FeatureTable:
    """Sum each WT's representative-state MPFs over every cluster's modes.

    Only the representative rows x the cluster's modes are formed, and each
    row is summed left to right in member order.
    """
    wt_ids = tuple(rep_rows)
    rows = [rep_rows[wt] for wt in wt_ids]
    table = np.zeros((len(wt_ids), clusters.n_clusters), dtype=complex)
    for c, group in enumerate(clusters.members):
        for r, mpf in enumerate(sol.participation(rows, group)):
            table[r, c] = sum(mpf)
    return FeatureTable(wt_ids=wt_ids, table=table)


@dataclass(frozen=True)
class GroupAssignment:
    group_of: dict[str, int]         # WT id -> dense group id
    margins: dict[str, float]        # dominance margin per WT, in [0, 1]
    merged: tuple[tuple[int, int], ...]   # (kept, absorbed) cluster-group pairs

    @property
    def n_groups(self) -> int:
        return len(set(self.group_of.values()))


def group_wts(features: FeatureTable,
              tau: float = GROUP_TAU) -> GroupAssignment:
    """Assign each WT to its dominant cluster, then merge look-alike groups.

    Grouping works on feature magnitudes.  Two groups merge when their
    centroid feature vectors differ by less than tau relative to the larger
    centroid norm.  The margin is (top - second) / top over |F_kc|; with a
    single cluster it is 1 by convention.
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

    # iterative closest-pair merging on group centroids
    alive = sorted(set(raw.tolist()))
    assign = raw.copy()
    merged: list[tuple[int, int]] = []
    while len(alive) > 1:
        centroids = {g: mags[assign == g].mean(axis=0) for g in alive}
        best = None
        for a_pos, ga in enumerate(alive):
            for gb in alive[a_pos + 1:]:
                denom = max(np.linalg.norm(centroids[ga]),
                            np.linalg.norm(centroids[gb]))
                if denom == 0:
                    dist = 0.0
                else:
                    dist = float(np.linalg.norm(centroids[ga] - centroids[gb])
                                 / denom)
                if best is None or dist < best[0]:
                    best = (dist, ga, gb)
        dist, ga, gb = best
        if dist >= tau:
            break
        assign[assign == gb] = ga
        merged.append((ga, gb))
        alive.remove(gb)

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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
