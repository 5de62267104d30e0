"""Dense eigendecomposition, biorthonormal vectors, and participation factors.

Participation of state k in mode i is f_ki = V_ik * U_ki with the left rows
rescaled so V_i U_i = 1; columns of the participation matrix then sum to one
exactly, which is the normalization every downstream superposition relies on.
The pipeline reads only slices of that n x n matrix (the `u_dc` rows, the
concern columns), so `ModalSolution.participation` forms just the block
asked for.  Desk-scale farms (a few hundred states) make full dense
decomposition the right tool; no selective or iterative solver is attempted.
`solve_modes` is the one linearize -> decompose -> select chain; the
detailed farm and the DEM each come out of it as a `FarmModel`.

`eig_biorthogonal` costs one `eig` and one `inv` plus O(n^2) norms, and
reads the conjugate pairs from `eig`'s layout.  Frobenius bounds decide its
gates, cond_2(U) > 1e12 and |Im lam| > 1e-7 ||A||_2, where they can; an SVD
runs only for the cond(U) gate or for a pair below 1e-7 ||A||_F.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .assembly import FarmStateSpace, linear_model
from .farm import FarmDescription
from .gridcsv import magnitude, write_grid
from .powerflow import BusSolution

_PAIR_RTOL = 1e-7
# cond_2(U) above which the eigenvector basis counts as defective
_COND_MAX = 1e12
# ||U||_F ||V||_F >= cond_2(U) accepts the basis without an SVD below this,
# two decades under _COND_MAX to absorb the roundoff in V and in cond(U)
_CERT_MAX = _COND_MAX / 100.0
# spectral abscissa above which a state matrix counts as unstable
UNSTABLE_ABSCISSA = 1e-9
# state kinds whose participation ranks the concern modes; [0] gives features
STATE_FILTER = ("u_dc",)


class DefectiveMatrixError(RuntimeError):
    """Eigenvector basis is numerically defective."""


@dataclass(frozen=True)
class ModalSolution:
    """Eigensolution with biorthonormal left/right vectors.

    `right[:, i]` and `left[i, :]` satisfy left @ right = I.  Modes are
    sorted by (Re, Im); `pair_of[i]` is the index of the conjugate partner
    (-1 for real and near-real modes).  `participation(rows, cols)` gives
    the MPFs that couple those states to those modes.  The states are
    named by the `FarmStateSpace` that was decomposed.
    """

    eigenvalues: np.ndarray      # complex (n,)
    right: np.ndarray            # complex (n, n), columns
    left: np.ndarray             # complex (n, n), rows
    pair_of: np.ndarray          # int (n,)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def unstable(self) -> bool:
        """Whether some mode lies right of `UNSTABLE_ABSCISSA`."""
        return float(np.max(self.eigenvalues.real)) > UNSTABLE_ABSCISSA

    def participation(self, rows: Sequence[int],
                      cols: Sequence[int]) -> np.ndarray:
        """MPF block f[k, i] = left[i, k] * right[k, i], k in rows, i in cols.

        Both factors are made C-contiguous.  numpy's vectorised complex
        multiply, which runs on contiguous operands, can round differently
        from its strided loop; the full table `left.T * right` of `eig`'s
        F-ordered basis runs the vectorised one, so every entry here equals
        that table's bit for bit.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return (np.ascontiguousarray(self.left[np.ix_(cols, rows)].T)
                * np.ascontiguousarray(self.right[np.ix_(rows, cols)]))

    def representatives(self) -> np.ndarray:
        """Indices of upper-half-plane members of oscillatory pairs."""
        return np.array([i for i, lam in enumerate(self.eigenvalues)
                         if self.pair_of[i] >= 0 and lam.imag > 0], dtype=int)


def eig_biorthogonal(a_s: np.ndarray) -> ModalSolution:
    """Full eigendecomposition with deterministic phase fixing.

    The largest-magnitude entry of each right vector is made real positive,
    so participation factors are reproducible across runs and platforms.
    Left rows come from the inverse of the right basis, which enforces
    biorthonormality globally (repeated eigenvalues included).

    Conjugate pairs are read from `eig`'s layout.  Cost: one `eig`, one
    `inv` and O(n^2) norms.  An SVD runs only when ||U||_F ||V||_F exceeds
    `_CERT_MAX` (then `cond(U)` decides) or when a pair has |Im lam| at or
    below 1e-7 max(1, ||A||_F) (then `norm(A, 2)` decides).
    """
    a_s = np.asarray(a_s, dtype=float)
    n = a_s.shape[0]
    if n == 0 or a_s.shape != (n, n) or not np.all(np.isfinite(a_s)):
        raise ValueError("state matrix must be non-empty, square and finite")

    lam, u = np.linalg.eig(a_s)
    order = np.lexsort((lam.imag, lam.real))
    u = u[:, order]

    # phase fix: rotate each column so its largest entry is real positive
    for i in range(n):
        k = int(np.argmax(np.abs(u[:, i])))
        pivot = u[k, i]
        u[:, i] *= np.conj(pivot) / abs(pivot)

    v = _inverse_basis(u)
    pair_of = _pair_modes(a_s, lam, order)

    return ModalSolution(eigenvalues=lam[order], right=u, left=v,
                         pair_of=pair_of)


def _inverse_basis(u: np.ndarray) -> np.ndarray:
    """V = U^-1, or DefectiveMatrixError when cond_2(U) > `_COND_MAX`.

    ||U||_F ||V||_F bounds cond_2(U) from above, so a small product accepts
    the basis without an SVD.  A larger product, or a basis `inv` calls
    singular, is judged by the SVD `cond(U)`.
    """
    try:
        v = np.linalg.inv(u)
        with np.errstate(over="ignore"):
            certified = np.linalg.norm(u) * np.linalg.norm(v) <= _CERT_MAX
    except np.linalg.LinAlgError:
        v, certified = None, False
    if not certified:
        cond = np.linalg.cond(u)
        if not np.isfinite(cond) or cond > _COND_MAX:
            raise DefectiveMatrixError(
                f"eigenvector basis is ill-conditioned (cond = {cond:.3e}); "
                "matrix is defective within working precision")
        if v is None:
            v = np.linalg.inv(u)    # a zero LU pivot despite cond(U): raise
    return v


def _pair_modes(a: np.ndarray, lam: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`pair_of` of the modes sorted by `order`, read from `eig`'s layout:
    each complex pair of a real matrix sits in consecutive slots as exact
    conjugates, Im > 0 first (LAPACK dgeev).  A pair oscillates when |Im lam|
    > `_PAIR_RTOL` max(1, ||A||_2); the bound ||A||_F >= ||A||_2 decides first.
    """
    upper = lam.imag > 0
    broken = (upper & (np.append(lam[1:], 0.0) != np.conj(lam))) \
        | (np.append(False, upper[:-1]) != (lam.imag < 0))
    if np.any(broken):
        raise DefectiveMatrixError(
            f"no conjugate partner for eigenvalue {lam[broken][0]:.6g}")
    up = np.flatnonzero(upper)
    with np.errstate(over="ignore"):    # an inf ||A||_F defers to the SVD
        scale = max(1.0, float(np.linalg.norm(a)))
    if np.any(lam.imag[up] <= _PAIR_RTOL * scale):
        scale = max(1.0, float(np.linalg.norm(a, ord=2)))
    up = up[lam.imag[up] > _PAIR_RTOL * scale]
    rank = np.argsort(order)
    pair_of = np.full(len(lam), -1, dtype=int)
    pair_of[rank[up]], pair_of[rank[up + 1]] = rank[up + 1], rank[up]
    return pair_of


@dataclass(frozen=True)
class ConcernSet:
    """Selected oscillatory pairs, one upper-half-plane representative each.

    Ordered by descending participation in the ranking states.
    """

    mode_indices: tuple[int, ...]
    eigenvalues: np.ndarray      # complex, aligned with mode_indices

    def __len__(self) -> int:
        return len(self.mode_indices)


def select_concern_modes(sol: ModalSolution, rows: Sequence[int],
                         n_expected: int) -> ConcernSet:
    """Rank pair representatives by summed |MPF| over the states `rows`."""
    if len(rows) == 0:
        raise ValueError("no states to rank the modes by")
    reps = sol.representatives()
    if len(reps) < n_expected:
        raise ValueError(
            f"only {len(reps)} oscillatory pairs available, "
            f"{n_expected} requested")
    scores = np.abs(sol.participation(rows, reps)).sum(axis=0)
    ranked = sorted(
        range(len(reps)),
        key=lambda k: (-scores[k], sol.eigenvalues[reps[k]].real,
                       sol.eigenvalues[reps[k]].imag))
    chosen = [int(reps[k]) for k in ranked[:n_expected]]
    eigs = sol.eigenvalues[chosen]

    freqs = eigs.imag
    med = float(np.median(freqs))
    if med > 0 and (np.any(freqs < 0.2 * med) or np.any(freqs > 5.0 * med)):
        warnings.warn(
            "selected modes span more than [0.2x, 5x] the median frequency; "
            "the state filter may be mixing bands", stacklevel=2)
    return ConcernSet(mode_indices=tuple(chosen), eigenvalues=eigs)


@dataclass(frozen=True)
class FarmModel:
    """One farm's linear model: its state space, the modal solution of
    that state space and the concern modes selected from it."""

    fss: FarmStateSpace
    modal: ModalSolution
    concern: ConcernSet


def solve_modes(farm: FarmDescription, flow: BusSolution) -> FarmModel:
    """Linearize the farm at the power flow, decompose it and select one
    concern mode per WT, ranked by the `STATE_FILTER` states."""
    fss = linear_model(farm, flow)
    sol = eig_biorthogonal(fss.a_s)
    return FarmModel(fss, sol, select_concern_modes(
        sol, fss.kind_rows(STATE_FILTER), farm.n_wt))


# ---------------------------------------------------------------------------
# artifacts


def write_modes_csv(model: FarmModel, path: str | Path) -> None:
    """One row per mode; a zero-magnitude mode has damping ratio nan."""
    sol, concern = model.modal, model.concern
    lam = sol.eigenvalues
    mag = magnitude(lam)
    selected = np.zeros(sol.n_modes)
    selected[list(concern.mode_indices)] = 1
    with np.errstate(invalid="ignore"):
        damping = -lam.real / mag
    write_grid(path, ["re", "im", "freq_hz", "damping_ratio", "pair_id",
                      "selected"],
               np.column_stack([lam.real, lam.imag,
                                np.abs(lam.imag) / (2 * np.pi), damping,
                                sol.pair_of, selected]))


def write_mpf_csv(model: FarmModel, path: str | Path) -> None:
    """f_ki as Re, Im columns: every state k, the concern modes i.

    Columns are named by the mode's index in `modes.csv` and come in
    `concern.mode_indices` order; |f_ki| is `hypot(re, im)`.
    """
    cols = list(model.concern.mode_indices)
    labels = model.fss.labels
    write_grid(path, [f"mode{i}" for i in cols],
               model.modal.participation(np.arange(len(labels)), cols),
               labels=("state", [f"{wt}:{kind}" for wt, kind in labels]))
