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

The state matrix is real, so the solution is kept in LAPACK's real
eigenbasis: R holds u for a real mode and Re u, Im u for a conjugate pair,
and W = R^-1 holds the left vectors in the same form.  U and V, complex,
are formed only for the rows and modes a caller reads.

`eig_biorthogonal` costs one `eig` and one real `inv` plus O(n^2) norms,
and reads the conjugate pairs from `eig`'s layout.  Frobenius bounds decide
its gates, cond_2(U) > 1e12 and |Im lam| > 1e-7 ||A||_2, where they can; an
SVD runs only for the cond(U) gate or for a pair below 1e-7 ||A||_F.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .assembly import FarmStateSpace, linear_model
from .farm import FarmDescription
from .gridcsv import magnitude, write_arrays, write_grid
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
    """Eigensolution with biorthonormal left/right vectors, in real form.

    Modes are sorted by (Re, Im).  `conj_of[i]` is the slot of mode i's
    exact conjugate (i itself for a real mode); of a pair, the lower member
    (Im < 0) sorts first.  `basis` is R: column i is u_i for a real mode;
    a pair's upper slot holds Re u and its lower slot Im u of the upper
    member, so u_up = R_up + j R_lo and u_lo = conj(u_up).  `inverse` is
    W = R^-1, and the left rows are v_i = W_i for a real mode and
    v_up = (W_up - j W_lo) / 2, v_lo = conj(v_up) for a pair, so V U = I.
    `right`, `left` and `participation` form complex entries only for the
    states and modes asked for.  `pair_of[i]` is the conjugate partner of an
    oscillatory mode (-1 for real and near-real modes).  The states are
    named by the `FarmStateSpace` that was decomposed.
    """

    eigenvalues: np.ndarray      # complex (n,)
    basis: np.ndarray            # float (n, n), R
    inverse: np.ndarray          # float (n, n), W = R^-1
    conj_of: np.ndarray          # int (n,)
    pair_of: np.ndarray          # int (n,)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def unstable(self) -> bool:
        """Whether some mode lies right of `UNSTABLE_ABSCISSA`."""
        return float(np.max(self.eigenvalues.real)) > UNSTABLE_ABSCISSA

    def _block(self, real_form: np.ndarray, pair_scale: float,
               im_sign: float, rows: Sequence[int],
               modes: Sequence[int]) -> np.ndarray:
        """Complex block z_i[k], k in rows, i in modes, C-contiguous, of the
        vectors whose real form has columns `real_form`: z_i = X_re +
        im_sign sign(Im lam_i) j X_im, times `pair_scale` for a pair member,
        where X_re and X_im are the upper and lower slots of i's pair (both
        i for a real mode, whose Im part is +0)."""
        modes = np.asarray(modes, dtype=int)
        partner = self.conj_of[modes]
        re, im = np.maximum(modes, partner), np.minimum(modes, partner)
        sign = np.sign(self.eigenvalues.imag[modes])
        scale = np.where(re == im, 1.0, pair_scale)
        ix = np.asarray(rows, dtype=int)[:, None]
        z = np.zeros((len(ix), len(modes)), dtype=complex)
        z.real = real_form[ix, re] * scale
        np.multiply(real_form[ix, im], im_sign * sign * scale, out=z.imag,
                    where=sign != 0)
        return z

    def right(self, rows: Sequence[int], modes: Sequence[int]) -> np.ndarray:
        """Block u_i[k], k in rows, i in modes, C-contiguous."""
        return self._block(self.basis, 1.0, 1.0, rows, modes)

    def left(self, rows: Sequence[int], modes: Sequence[int]) -> np.ndarray:
        """Block v_i[k], k in rows, i in modes (V transposed), C-contiguous."""
        return self._block(self.inverse.T, 0.5, -1.0, rows, modes)

    def participation(self, rows: Sequence[int],
                      cols: Sequence[int]) -> np.ndarray:
        """MPF block f[k, i] = v_i[k] * u_i[k], k in rows, i in cols.

        Both factors are C-contiguous and the product is formed out of
        place, so numpy runs one multiply loop whatever the block (an
        in-place product of a single entry takes its scalar loop, which can
        round differently); every entry equals the full table's, formed
        from the same basis, bit for bit.
        """
        return self.left(rows, cols) * self.right(rows, cols)

    def representatives(self) -> np.ndarray:
        """Indices of upper-half-plane members of oscillatory pairs."""
        return np.array([i for i, lam in enumerate(self.eigenvalues)
                         if self.pair_of[i] >= 0 and lam.imag > 0], dtype=int)


def eig_biorthogonal(a_s: np.ndarray) -> ModalSolution:
    """Full eigendecomposition with deterministic phase fixing.

    The largest-magnitude entry of each right vector is made real positive,
    so participation factors are reproducible across runs and platforms.
    The phase-fixed vectors go straight into the real basis R in sorted
    mode order; the left vectors come from W = R^-1, which enforces
    biorthonormality globally (repeated eigenvalues included).

    Conjugate pairs are read from `eig`'s layout.  Cost: one `eig`, one
    real `inv` and O(n^2) norms.  With D = diag(1 for a real mode, sqrt 2
    for a pair member), U = R D Q for a unitary Q, so ||U||_F ||V||_F =
    ||R D||_F ||D^-1 W||_F and cond_2(U) = cond_2(R D).  An SVD runs only
    when that product exceeds `_CERT_MAX` (then `cond(R D)` decides) or
    when a pair has |Im lam| at or below 1e-7 max(1, ||A||_F) (then
    `norm(A, 2)` decides).
    """
    a_s = np.asarray(a_s, dtype=float)
    n = a_s.shape[0]
    if n == 0 or a_s.shape != (n, n) or not np.all(np.isfinite(a_s)):
        raise ValueError("state matrix must be non-empty, square and finite")

    lam, u = np.linalg.eig(a_s)
    up = _conjugate_layout(lam)
    order = np.lexsort((lam.imag, lam.real))
    rank = np.argsort(order)
    upper = np.zeros(n, dtype=bool)
    upper[up] = True
    lower = np.roll(upper, 1)

    # phase fix: rotate each column so its largest entry is real positive;
    # a lower member is its upper partner's conjugate and is not read
    basis = np.empty((n, n), order="F")
    for i in np.flatnonzero(~lower):
        k = int(np.argmax(np.abs(u[:, i])))
        pivot = u[k, i]
        u[:, i] *= np.conj(pivot) / abs(pivot)
        basis[:, rank[i]] = u[:, i].real
        if upper[i]:
            basis[:, rank[i + 1]] = u[:, i].imag
    del u

    conj_of = np.arange(n)
    conj_of[rank[up]], conj_of[rank[up + 1]] = rank[up + 1], rank[up]
    lam = lam[order]
    return ModalSolution(eigenvalues=lam, basis=basis,
                         inverse=_inverse_basis(basis, conj_of),
                         conj_of=conj_of,
                         pair_of=_pair_modes(a_s, lam, conj_of))


def _inverse_basis(r: np.ndarray, conj_of: np.ndarray) -> np.ndarray:
    """W = R^-1, or DefectiveMatrixError when cond_2(U) > `_COND_MAX`.

    With d_i^2 = 2 for a pair member and 1 for a real mode, ||U||_F ||V||_F
    = ||R D||_F ||D^-1 W||_F bounds cond_2(U) from above, so a small
    product accepts the basis without an SVD.  A larger product, or a basis
    `inv` calls singular, is judged by the SVD `cond(R D)`.
    """
    d2 = np.where(conj_of == np.arange(len(conj_of)), 1.0, 2.0)
    try:
        w = np.linalg.inv(r)
        with np.errstate(over="ignore"):
            certified = np.sqrt(np.einsum("ij,ij->j", r, r) @ d2) \
                * np.sqrt(np.einsum("ij,ij->i", w, w) @ (1.0 / d2)) \
                <= _CERT_MAX
    except np.linalg.LinAlgError:
        w, certified = None, False
    if not certified:
        cond = np.linalg.cond(r * np.sqrt(d2))
        if not np.isfinite(cond) or cond > _COND_MAX:
            raise DefectiveMatrixError(
                f"eigenvector basis is ill-conditioned (cond = {cond:.3e}); "
                "matrix is defective within working precision")
        if w is None:
            w = np.linalg.inv(r)    # a zero LU pivot despite cond(U): raise
    return w


def _conjugate_layout(lam: np.ndarray) -> np.ndarray:
    """Upper pair members, read from `eig`'s layout: each complex pair of a
    real matrix sits in consecutive slots as exact conjugates, Im > 0 first
    (LAPACK dgeev).  A layout that breaks this raises."""
    upper = lam.imag > 0
    broken = (upper & (np.append(lam[1:], 0.0) != np.conj(lam))) \
        | (np.append(False, upper[:-1]) != (lam.imag < 0))
    if np.any(broken):
        raise DefectiveMatrixError(
            f"no conjugate partner for eigenvalue {lam[broken][0]:.6g}")
    return np.flatnonzero(upper)


def _pair_modes(a: np.ndarray, lam: np.ndarray,
                conj_of: np.ndarray) -> np.ndarray:
    """`pair_of` of the sorted modes `lam`: a conjugate pair oscillates when
    |Im lam| > `_PAIR_RTOL` max(1, ||A||_2); the bound ||A||_F >= ||A||_2
    decides first."""
    im = np.abs(lam.imag)
    with np.errstate(over="ignore"):    # an inf ||A||_F defers to the SVD
        scale = max(1.0, float(np.linalg.norm(a)))
    if np.any((im > 0) & (im <= _PAIR_RTOL * scale)):
        scale = max(1.0, float(np.linalg.norm(a, ord=2)))
    return np.where(im > _PAIR_RTOL * scale, conj_of, -1)


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
    """f_ki, every state k and the concern modes i, as `mpf.npz` at `path`.

    Keys: `mpf`, the complex128 block as `participation` forms it; `state`,
    the `"wt:kind"` row labels; `mode`, the columns' indices in `modes.csv`
    (int64), in `concern.mode_indices` order.  The name keeps the `_csv`
    of the former text artifact because the benchmark's tracer looks the
    writer up by name.
    """
    cols = list(model.concern.mode_indices)
    labels = model.fss.labels
    write_arrays(path, {
        "mpf": model.modal.participation(np.arange(len(labels)), cols),
        "state": np.array([f"{wt}:{kind}" for wt, kind in labels], dtype=str),
        "mode": np.array(cols, dtype=np.int64)})
