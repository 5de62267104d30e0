"""Dense eigendecomposition, biorthonormal vectors, and participation factors.

Participation of state k in mode i is f_ki = V_ik * U_ki with the left rows
rescaled so V_i U_i = 1; columns of the participation matrix then sum to one
exactly, which is the normalization every downstream superposition relies on.
The pipeline never forms that n x n matrix: `ModalSolution.participation`
forms the block asked for (the `u_dc` rows x concern columns that build
the features are `mpf.npz`), and `loop_participation` sums |f| per state
kind and per WT a column block at a time.  Desk-scale farms (a few
hundred states) make full dense decomposition the right tool; no selective
or iterative solver is attempted.
`solve_modes` is the one linearize -> decompose -> select chain; the
detailed farm and the DEM each come out of it as a `FarmModel`.

The state matrix is real, so the solution is kept in LAPACK's real
eigenbasis: R holds u for a real mode and Re u, Im u for a conjugate pair,
and W = R^-1 holds the left vectors in the same form.  U and V, complex,
are formed only for the rows and modes a caller reads.  Each u_i keeps
dgeev's unit 2-norm and phase, which no result reads.

A `FarmModel` keeps R and W but no state matrix.  `solve_modes` hands A
to `eig_biorthogonal` as an array-like that keeps no reference to it, so
A is freed once copied for dgeev; the one pair rule that needs ||A||_2
relinearizes.  The decomposition's peak is then R, dgesv's copy of it and
W.

`eig_biorthogonal` costs one LAPACK dgeev and one real dgesv (`_lapack`)
plus O(n^2) norms, and reads the conjugate pairs from dgeev's layout.
Frobenius bounds decide its gates, cond_2(U) > 1e12 and |Im lam| > 1e-7
||A||_2, where they can; an SVD runs only for the cond(U) gate or for a
pair below 1e-7 ||A||_F.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import _lapack
from .assembly import FarmStateSpace, linear_model
from .farm import FarmDescription
from .gridcsv import magnitude, write_arrays, write_grid
from .powerflow import BusSolution
from .wt import STATE_KINDS

_PAIR_RTOL = 1e-7
# cond_2(U) above which the eigenvector basis counts as defective
_COND_MAX = 1e12
# ||U||_F ||V||_F >= cond_2(U) accepts the basis without an SVD below this,
# two decades under _COND_MAX to absorb the roundoff in V and in cond(U)
_CERT_MAX = _COND_MAX / 100.0
# spectral abscissa above which a state matrix counts as unstable
UNSTABLE_ABSCISSA = 1e-9
# rows of the MPF block that `ModalSolution.participation` forms at a time:
# few, so that one row block's factors stay small beside a block of one row
# per WT
_ROW_BLOCK = 16
# modes of the MPF block that `loop_participation` forms at a time
_COL_BLOCK = 128
# state kinds whose participation ranks the concern modes; [0] gives features
STATE_FILTER = ("u_dc",)
# state kinds of the DC-voltage control loop, whose share `modes.csv` gives
DVC_KINDS = ("u_dc", "dvc_int")


class DefectiveMatrixError(RuntimeError):
    """Eigenvector basis is numerically defective."""


class ModeCountError(ValueError):
    """A mode count out of range: concern modes beyond the oscillatory
    pairs, or a cluster count outside 1 to the number of concern modes."""


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

        The result is filled `_ROW_BLOCK` rows at a time, so beside it
        only one row block's factors are live.  Both factors are
        C-contiguous and their product goes to rows of the result, never
        into a factor, so numpy runs one multiply loop whatever the block
        (an in-place product of a single entry takes its scalar loop, which
        can round differently); every entry equals the full table's, formed
        from the same basis, bit for bit.
        """
        rows = np.asarray(rows, dtype=int)
        f = np.empty((len(rows), len(cols)), dtype=complex)
        for lo in range(0, len(rows), _ROW_BLOCK):
            part = rows[lo:lo + _ROW_BLOCK]
            np.multiply(self.left(part, cols), self.right(part, cols),
                        out=f[lo:lo + len(part)])
        return f

    def residues(self, m: np.ndarray, q: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights w_re + j w_im of the modes that stand for the whole
        spectrum, and their eigenvalues: the real modes, then the upper
        pair members.

        `m` = C R holds output rows in the real basis and `q` = W b the
        input in it.  A real mode's weight is (C u_i)(v_i b) = M_i q_i; an
        upper member's, (M_up + j M_lo)(q_up - j q_lo), is twice its own
        (C u_i)(v_i b) and stands for its conjugate partner too.
        """
        real = np.flatnonzero(self.conj_of == np.arange(self.n_modes))
        upper = np.flatnonzero(self.eigenvalues.imag > 0)
        lower = self.conj_of[upper]
        w_re = np.hstack([m[:, real] * q[real],
                          m[:, upper] * q[upper] + m[:, lower] * q[lower]])
        w_im = np.hstack([np.zeros((len(m), len(real))),
                          m[:, lower] * q[upper] - m[:, upper] * q[lower]])
        return w_re, w_im, self.eigenvalues[np.concatenate([real, upper])]

    def representatives(self) -> np.ndarray:
        """Indices of upper-half-plane members of oscillatory pairs."""
        return np.flatnonzero((self.pair_of >= 0)
                              & (self.eigenvalues.imag > 0))


def eig_biorthogonal(a_s: ArrayLike) -> ModalSolution:
    """Full eigendecomposition in LAPACK's real eigenbasis.

    R is dgeev's right vectors in real form with the columns in sorted
    mode order (a pair's Re u and Im u land in its upper and lower slots),
    so no complex n x n array is formed.  Each u_i keeps dgeev's unit
    2-norm and largest component real; no further phase is fixed:
    u_i e^{jt} goes with v_i e^{-jt}, and neither a participation factor
    v_i[k] u_i[k] nor a residue (C u_i)(v_i b) reads the phase.  W = R^-1
    gives the left vectors and enforces biorthonormality globally
    (repeated eigenvalues included).

    Conjugate pairs are read from dgeev's layout.  Cost: one dgeev, one
    real dgesv and O(n^2) norms.  With D = diag(1 for a real mode, sqrt 2
    for a pair member), U = R D Q for a unitary Q, so ||U||_F ||V||_F =
    ||R D||_F ||D^-1 W||_F and cond_2(U) = cond_2(R D); the 1e12 gate on
    cond_2(U) measures a basis of unit vectors.  An SVD runs only when
    that product exceeds `_CERT_MAX` (then `cond(R D)` decides) or when a
    pair has |Im lam| at or below 1e-7 max(1, ||A||_F) (then `norm(A, 2)`
    decides).

    `a_s` is left untouched: dgeev overwrites a Fortran-ordered copy.
    The array `np.asarray` makes of `a_s` is released once copied, and only
    that pair rule's SVD converts `a_s` again, so an array-like that hands
    over a matrix nothing else holds (as `solve_modes` does) frees it
    before dgeev runs.
    """
    a = np.asarray(a_s, dtype=float)
    n = a.shape[0]
    if n == 0 or a.shape != (n, n) or not np.all(np.isfinite(a)):
        raise ValueError("state matrix must be non-empty, square and finite")
    with np.errstate(over="ignore"):    # an inf ||A||_F defers to the SVD
        norm_f = float(np.linalg.norm(a))
    a = np.array(a, order="F")          # dgeev's to overwrite

    wr, wi, vr = _lapack.geev(a)
    del a
    lam = np.empty(n, dtype=complex)
    lam.real, lam.imag = wr, wi
    up = _conjugate_layout(lam)
    order = np.lexsort((lam.imag, lam.real))
    rank = np.argsort(order)
    conj_of = np.arange(n)
    conj_of[rank[up]], conj_of[rank[up + 1]] = rank[up + 1], rank[up]
    lam = lam[order]
    pair_of = _pair_modes(a_s, lam, conj_of, norm_f)
    # R's columns are vr's in sorted order, taken as rows of vr.T into R's
    # own memory; mode="clip" (order is a permutation) spares an n^2 buffer
    basis = np.empty((n, n), order="F")
    np.take(vr.T, order, axis=0, out=basis.T, mode="clip")
    del vr
    return ModalSolution(eigenvalues=lam, basis=basis,
                         inverse=_inverse_basis(basis, conj_of),
                         conj_of=conj_of, pair_of=pair_of)


def _inverse_basis(r: np.ndarray, conj_of: np.ndarray) -> np.ndarray:
    """W = R^-1, or DefectiveMatrixError when cond_2(U) > `_COND_MAX`.

    With d_i^2 = 2 for a pair member and 1 for a real mode, ||U||_F ||V||_F
    = ||R D||_F ||D^-1 W||_F bounds cond_2(U) from above, so a small
    product accepts the basis without an SVD.  A larger product, or a basis
    dgesv calls singular, is judged by the SVD `cond(R D)`.
    """
    d2 = np.where(conj_of == np.arange(len(conj_of)), 1.0, 2.0)
    try:
        w = _lapack.inv(r)
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
            w = _lapack.inv(r)      # a zero LU pivot despite cond(U): raise
    return w


def _conjugate_layout(lam: np.ndarray) -> np.ndarray:
    """Upper pair members, read from dgeev's layout: each complex pair of a
    real matrix sits in consecutive slots as exact conjugates, Im > 0
    first.  A layout that breaks this raises."""
    upper = lam.imag > 0
    broken = (upper & (np.append(lam[1:], 0.0) != np.conj(lam))) \
        | (np.append(False, upper[:-1]) != (lam.imag < 0))
    if np.any(broken):
        raise DefectiveMatrixError(
            f"no conjugate partner for eigenvalue {lam[broken][0]:.6g}")
    return np.flatnonzero(upper)


def _pair_modes(a_s: ArrayLike, lam: np.ndarray, conj_of: np.ndarray,
                norm_f: float) -> np.ndarray:
    """`pair_of` of the sorted modes `lam`: a conjugate pair oscillates when
    |Im lam| > `_PAIR_RTOL` max(1, ||A||_2).  The bound `norm_f` = ||A||_F
    >= ||A||_2 decides first; only a pair at or below it converts the
    array-like `a_s` for the SVD."""
    im = np.abs(lam.imag)
    scale = max(1.0, norm_f)
    if np.any((im > 0) & (im <= _PAIR_RTOL * scale)):
        a = np.asarray(a_s, dtype=float)
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
        raise ModeCountError(
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


def loop_participation(fss: FarmStateSpace, sol: ModalSolution,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's DVC share and dominant WT, from |f| summed per state.

    `dvc_share[i]` is mode i's sum of |f_ki| over the `DVC_KINDS` states k
    (u_dc and dvc_int) over its sum over all four kinds; `dominant[i]` (int64) is the position in
    `fss.wt_order` of the WT whose four states sum highest, the first on an
    exact tie.  The sums are filled `_COL_BLOCK` modes at a time from
    `participation` over every state, so no n x n block is formed.
    """
    kind_rows = [fss.kind_rows((kind,)) for kind in STATE_KINDS]
    dvc = [STATE_KINDS.index(kind) for kind in DVC_KINDS]
    every = np.arange(fss.n_states)
    dvc_share = np.empty(sol.n_modes)
    dominant = np.empty(sol.n_modes, dtype=np.int64)
    for lo in range(0, sol.n_modes, _COL_BLOCK):
        cols = np.arange(lo, min(lo + _COL_BLOCK, sol.n_modes))
        mag = np.abs(sol.participation(every, cols))
        # |f| of (kind, WT in wt_order, mode)
        per_kind = np.stack([mag[rows] for rows in kind_rows])
        dvc_share[cols] = per_kind[dvc].sum(axis=(0, 1)) \
            / per_kind.sum(axis=(0, 1))
        dominant[cols] = np.argmax(per_kind.sum(axis=0), axis=0)
    return dvc_share, dominant


@dataclass(frozen=True)
class FarmModel:
    """One farm's linear model: its state space, the modal solution of
    that state space and the concern modes selected from it."""

    fss: FarmStateSpace
    modal: ModalSolution
    concern: ConcernSet


class _StateMatrix:
    """The state matrix of `farm` at `flow`, as an array-like that
    `eig_biorthogonal` can free: the first conversion hands over the matrix
    `linear_model` built and keeps no reference to it; a later one, which
    only the pair rule's SVD makes, relinearizes.  `linear_model` is
    deterministic, so every conversion gives the same bits."""

    def __init__(self, a_s: np.ndarray, farm: FarmDescription,
                 flow: BusSolution):
        self._a_s, self._farm, self._flow = a_s, farm, flow

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        a_s, self._a_s = self._a_s, None
        if a_s is None:
            a_s = linear_model(self._farm, self._flow).a_s
        return a_s


def solve_modes(farm: FarmDescription, flow: BusSolution) -> FarmModel:
    """Linearize the farm at the power flow, decompose it and select one
    concern mode per WT, ranked by the `STATE_FILTER` states.  The model
    keeps no state matrix: its `fss.a_s` is None."""
    fss = linear_model(farm, flow)
    a_s = _StateMatrix(fss.a_s, farm, flow)
    fss = replace(fss, a_s=None)
    sol = eig_biorthogonal(a_s)
    return FarmModel(fss, sol, select_concern_modes(
        sol, fss.kind_rows(STATE_FILTER), farm.n_wt))


# ---------------------------------------------------------------------------
# artifacts


def write_modes_csv(model: FarmModel, path: str | Path) -> None:
    """One row per mode: re, im, freq_hz, damping_ratio, pair_id, selected,
    and `loop_participation`'s dvc_share and dominant_wt (0-based, in
    `fss.wt_order`); a zero-magnitude mode has damping ratio nan."""
    sol, concern = model.modal, model.concern
    lam = sol.eigenvalues
    mag = magnitude(lam)
    selected = np.zeros(sol.n_modes)
    selected[list(concern.mode_indices)] = 1
    with np.errstate(invalid="ignore"):
        damping = -lam.real / mag
    dvc_share, dominant = loop_participation(model.fss, sol)
    write_grid(path, ["re", "im", "freq_hz", "damping_ratio", "pair_id",
                      "selected", "dvc_share", "dominant_wt"],
               np.column_stack([lam.real, lam.imag,
                                np.abs(lam.imag) / (2 * np.pi), damping,
                                sol.pair_of, selected, dvc_share, dominant]))


def write_mpf_csv(model: FarmModel, path: str | Path) -> None:
    """f_ki of each WT's `STATE_FILTER[0]` state k and the concern modes i,
    as `mpf.npz` at `path`: the block `clustering.superimpose_mpf` sums
    into the features.

    Keys: `mpf`, the complex128 block as `participation` forms it, one row
    per WT in `fss.wt_order`; `state`, the `"wt:kind"` row labels; `mode`,
    the columns' indices in `modes.csv` (int64), in `concern.mode_indices`
    order.  The name keeps the `_csv` of the former text artifact because
    the benchmark's tracer looks the writer up by name.
    """
    rows = model.fss.kind_rows(STATE_FILTER[:1])
    cols = list(model.concern.mode_indices)
    labels = model.fss.labels
    write_arrays(path, {
        "mpf": model.modal.participation(rows, cols),
        "state": np.array([":".join(labels[k]) for k in rows], dtype=str),
        "mode": np.array(cols, dtype=np.int64)})
