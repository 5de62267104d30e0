"""LAPACK's real eigendecomposition and the inverse of a real matrix, from
the library that `numpy.linalg` itself calls.

`np.linalg.eig` expands dgeev's real eigenvectors into a complex n x n
buffer and copies that into a complex n x n result, 4 n^2 doubles that
`modal` never reads: it keeps the real form.  numpy >= 2 wheels bundle
scipy-openblas, whose ILP64 LAPACK `numpy.linalg` calls as
`scipy_dgeev_64_` and `scipy_dgesv_64_`.  `geev` and `inv` call those two
through ctypes with the arguments numpy passes (dgeev with JOBVL = N,
JOBVR = V and the workspace its own query returns; dgesv against the
identity), so they return numpy's bits.  Where the process finds no such
library (numpy 1.x, MKL or distribution builds) they take the same LAPACK
results from `np.linalg.eig` and `np.linalg.inv`.  The library is looked
up once, on first use.  `geev` hands dgeev its argument to overwrite, so
its caller decides whether a copy is needed; `inv` copies R for dgesv,
since R is kept.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_ARGS = {
    "dgeev": ("JOBVL", "JOBVR", "N", "A", "LDA", "WR", "WI", "VL", "LDVL",
              "VR", "LDVR", "WORK", "LWORK", "INFO"),
    "dgesv": ("N", "NRHS", "A", "LDA", "IPIV", "B", "LDB", "INFO"),
}
# numpy.linalg's messages for the same failures
_FAILED = {"dgeev": "Eigenvalues did not converge",
           "dgesv": "Singular matrix"}


def _address(x: np.ndarray, shape: tuple[int, ...], dtype=np.float64) -> int:
    """Where LAPACK may read and write `x` as a Fortran-ordered `shape`
    array of `dtype`; a buffer of any other form raises."""
    if x.shape != shape or x.dtype != dtype or not x.flags.f_contiguous \
            or not x.flags.writeable:
        raise ValueError(f"LAPACK buffer {x.shape} {x.dtype} is not a "
                         f"writeable Fortran-ordered {shape} {dtype.__name__}")
    return x.ctypes.data


class _OpenBLAS:
    """dgeev and dgesv of numpy's bundled library; each call returns INFO."""

    def __init__(self, lib: ctypes.CDLL):
        self._geev = lib.scipy_dgeev_64_
        self._gesv = lib.scipy_dgesv_64_
        ptr = ctypes.c_void_p
        # Fortran: every argument by reference, then the hidden lengths of
        # the two CHARACTER arguments
        self._geev.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _INT_P, ptr,
                               _INT_P, ptr, ptr, ptr, _INT_P, ptr, _INT_P,
                               ptr, _INT_P, _INT_P, ctypes.c_size_t,
                               ctypes.c_size_t]
        self._geev.restype = None
        self._gesv.argtypes = [_INT_P, _INT_P, ptr, _INT_P, ptr, ptr, _INT_P,
                               _INT_P]
        self._gesv.restype = None

    def dgeev(self, a: np.ndarray, wr: np.ndarray, wi: np.ndarray,
              vr: np.ndarray, work: np.ndarray, lwork: int) -> int:
        n, info = len(a), _INT()
        ld, vl = _INT(max(n, 1)), np.empty(1)
        self._geev(b"N", b"V", _INT(n), _address(a, (n, n)), ld,
                   _address(wr, (n,)), _address(wi, (n,)), vl.ctypes.data,
                   _INT(1), _address(vr, (n, n)), ld,
                   _address(work, (max(lwork, 1),)), _INT(lwork), info, 1, 1)
        return info.value

    def dgesv(self, a: np.ndarray, ipiv: np.ndarray, b: np.ndarray) -> int:
        n, info = len(a), _INT()
        ld = _INT(max(n, 1))
        self._gesv(_INT(n), _INT(b.shape[1]), _address(a, (n, n)), ld,
                   _address(ipiv, (n,), np.int64),
                   _address(b, (n, b.shape[1])), ld, info)
        return info.value


@functools.cache
def _bundled() -> _OpenBLAS | None:
    """The scipy-openblas routines that `numpy.linalg` links, or None.

    dlsym on the handle of numpy's own `_umath_linalg` extension searches
    that module and the libraries it was linked against, so a symbol found
    there is the one `np.linalg.eig` calls."""
    try:
        from numpy.linalg import _umath_linalg
        return _OpenBLAS(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, AttributeError, OSError):
        return None


def _check(routine: str, info: int) -> None:
    if info < 0:
        raise RuntimeError(f"LAPACK {routine} rejected argument {-info} "
                           f"({_ARGS[routine][-info - 1]})")
    if info > 0:
        raise np.linalg.LinAlgError(_FAILED[routine])


def geev(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(wr, wi, vr) of the real square matrix `a`, as dgeev returns them.

    The eigenvalues are wr + j wi, each complex pair in consecutive slots,
    Im > 0 first.  Column i of vr is u_i for a real mode; a pair's two
    columns hold Re u and Im u of its first member.  On both routes each
    u_i has unit 2-norm and its largest component real, as dgeev
    normalises it.  No complex array is formed on the bundled route, and
    no copy of `a`: there `a` must be a writeable Fortran-ordered float64
    array, and dgeev overwrites it.  LinAlgError when the QR iteration
    does not converge.
    """
    lapack = _bundled()
    if lapack is None:
        lam, u = np.linalg.eig(a)
        vr = np.array(u.real, order="F")
        up = np.flatnonzero(lam.imag > 0)
        vr[:, up + 1] = u.imag[:, up]
        return lam.real, lam.imag, vr
    n = len(a)
    wr, wi, vr = np.empty(n), np.empty(n), np.empty((n, n), order="F")
    query = np.empty(1)
    _check("dgeev", lapack.dgeev(a, wr, wi, vr, query, -1))
    lwork = int(query[0])
    _check("dgeev", lapack.dgeev(a, wr, wi, vr, np.empty(lwork), lwork))
    return wr, wi, vr


def inv(r: np.ndarray) -> np.ndarray:
    """R^-1 of the real square matrix `r`, C-contiguous as `np.linalg.inv`
    returns it; LinAlgError when dgesv meets an exactly zero pivot."""
    lapack = _bundled()
    if lapack is None:
        return np.linalg.inv(r)
    n = len(r)
    lu = np.array(r, dtype=float, order="F")   # dgesv overwrites its A
    w = np.eye(n, order="F")
    info = lapack.dgesv(lu, np.empty(n, dtype=np.int64), w)
    del lu
    _check("dgesv", info)
    return np.ascontiguousarray(w)
