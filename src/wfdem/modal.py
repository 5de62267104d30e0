"""Dense eigendecomposition, biorthonormal vectors, and participation factors.

Participation of state k in mode i is f_ki = V_ik * U_ki with the left rows
rescaled so V_i U_i = 1; columns of the participation matrix then sum to one
exactly, which is the normalization every downstream superposition relies on.
Desk-scale farms (a few hundred states) make full dense decomposition the
right tool; no selective or iterative solver is attempted.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import StateLabel
from .gridcsv import write_grid

_PAIR_RTOL = 1e-7
# spectral abscissa above which a state matrix counts as unstable
UNSTABLE_ABSCISSA = 1e-9


class DefectiveMatrixError(RuntimeError):
    """Eigenvector basis is numerically defective."""


@dataclass(frozen=True)
class ModalSolution:
    """Eigensolution with biorthonormal left/right vectors and MPF table.

    `right[:, i]` and `left[i, :]` satisfy left @ right = I.  Modes are
    sorted by (Re, Im); `pair_of[i]` is the index of the conjugate partner
    (-1 for real modes).  `mpf[k, i]` couples state k to mode i.
    """

    eigenvalues: np.ndarray      # complex (n,)
    right: np.ndarray            # complex (n, n), columns
    left: np.ndarray             # complex (n, n), rows
    mpf: np.ndarray              # complex (n, n)
    pair_of: np.ndarray          # int (n,)
    labels: tuple[StateLabel, ...]

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def unstable(self) -> bool:
        """Whether some mode lies right of `UNSTABLE_ABSCISSA`."""
        return float(np.max(self.eigenvalues.real)) > UNSTABLE_ABSCISSA

    def kind_rows(self, kinds: tuple[str, ...]) -> np.ndarray:
        return np.array([k for k, (_, kd) in enumerate(self.labels)
                         if kd in kinds], dtype=int)

    def representatives(self) -> np.ndarray:
        """Indices of upper-half-plane members of oscillatory pairs."""
        return np.array([i for i, lam in enumerate(self.eigenvalues)
                         if self.pair_of[i] >= 0 and lam.imag > 0], dtype=int)


def _generic_labels(n: int) -> tuple[StateLabel, ...]:
    return tuple((f"x{k}", "state") for k in range(n))


def eig_biorthogonal(a_s: np.ndarray,
                     labels: tuple[StateLabel, ...] | None = None,
                     ) -> ModalSolution:
    """Full eigendecomposition with deterministic phase fixing.

    The largest-magnitude entry of each right vector is made real positive,
    so participation factors are reproducible across runs and platforms.
    Left rows come from the inverse of the right basis, which enforces
    biorthonormality globally (repeated eigenvalues included).
    """
    a_s = np.asarray(a_s, dtype=float)
    n = a_s.shape[0]
    if a_s.shape != (n, n) or not np.all(np.isfinite(a_s)):
        raise ValueError("state matrix must be square and finite")
    if labels is None:
        labels = _generic_labels(n)
    if len(labels) != n:
        raise ValueError("label count does not match the state dimension")

    lam, u = np.linalg.eig(a_s)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    u = u[:, order]

    # phase fix: rotate each column so its largest entry is real positive
    for i in range(n):
        k = int(np.argmax(np.abs(u[:, i])))
        pivot = u[k, i]
        u[:, i] *= np.conj(pivot) / abs(pivot)

    cond = np.linalg.cond(u)
    if not np.isfinite(cond) or cond > 1e12:
        raise DefectiveMatrixError(
            f"eigenvector basis is ill-conditioned (cond = {cond:.3e}); "
            "matrix is defective within working precision")
    v = np.linalg.inv(u)

    scale = max(1.0, float(np.linalg.norm(a_s, ord=2)))
    pair_of = np.full(n, -1, dtype=int)
    unmatched = [i for i in range(n) if abs(lam[i].imag) > _PAIR_RTOL * scale]
    pos = [i for i in unmatched if lam[i].imag > 0]
    neg = set(i for i in unmatched if lam[i].imag < 0)
    for i in pos:
        j = min(neg, key=lambda j: abs(lam[j] - np.conj(lam[i])), default=None)
        if j is None or abs(lam[j] - np.conj(lam[i])) > 1e-6 * scale:
            raise DefectiveMatrixError(
                f"no conjugate partner for eigenvalue {lam[i]:.6g}")
        pair_of[i], pair_of[j] = j, i
        neg.discard(j)

    mpf = v.T * u   # mpf[k, i] = v[i, k] * u[k, i]

    return ModalSolution(eigenvalues=lam, right=u, left=v, mpf=mpf,
                         pair_of=pair_of, labels=tuple(labels))


@dataclass(frozen=True)
class ConcernSet:
    """Selected oscillatory pairs, one upper-half-plane representative each.

    Ordered by descending participation in the filtered state kinds.
    """

    mode_indices: tuple[int, ...]
    eigenvalues: np.ndarray      # complex, aligned with mode_indices
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.mode_indices)


def select_concern_modes(sol: ModalSolution, n_expected: int,
                         kinds: tuple[str, ...] = ("u_dc",)) -> ConcernSet:
    """Rank pair representatives by summed |MPF| over the filtered states."""
    rows = sol.kind_rows(kinds)
    if rows.size == 0:
        raise ValueError(f"no states of kinds {kinds!r}")
    reps = sol.representatives()
    if len(reps) < n_expected:
        raise ValueError(
            f"only {len(reps)} oscillatory pairs available, "
            f"{n_expected} requested")
    scores = np.abs(sol.mpf[np.ix_(rows, reps)]).sum(axis=0)
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
    return ConcernSet(mode_indices=tuple(chosen), eigenvalues=eigs,
                      kinds=tuple(kinds))


# ---------------------------------------------------------------------------
# artifacts


def write_modes_csv(sol: ModalSolution, concern: ConcernSet | None,
                    path: str | Path) -> None:
    selected = set(concern.mode_indices) if concern else set()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "freq_hz", "damping_ratio",
                         "pair_id", "selected"])
        for i, lam in enumerate(sol.eigenvalues):
            mag = abs(lam)
            writer.writerow([
                f"{lam.real:.12g}", f"{lam.imag:.12g}",
                f"{abs(lam.imag) / (2 * np.pi):.12g}",
                f"{-lam.real / mag:.12g}" if mag > 0 else "nan",
                sol.pair_of[i],
                int(i in selected),
            ])


def write_mpf_csv(sol: ModalSolution, path: str | Path) -> None:
    """State-by-mode |f_ki| grid with re/im companion columns."""
    write_grid(path, [f"mode{i}" for i in range(sol.n_modes)], sol.mpf,
               labels=("state", [f"{wt}:{kind}" for wt, kind in sol.labels]))
