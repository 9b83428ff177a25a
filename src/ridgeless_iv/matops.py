"""Dense symmetric linear algebra primitives shared by every other module.

All routines are pure: they never mutate their inputs and hold no state, so
results can be shared freely across threads.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack


class InvalidMatrix(ValueError):
    """Input matrix is non-finite, non-square, or not symmetric."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance."""


def default_rank_tol(dim: int) -> float:
    # deterministic cutoff for truncated spectra that contain exact zeros
    return dim * np.finfo(float).eps * 64.0


_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _lapack(name: str, signature: str):
    """LAPACK routine `name` as exported by scipy.linalg.cython_lapack,
    callable from Python through ctypes.

    It is the code scipy.linalg's own wrappers run, so results are the same
    bits; but scipy.linalg holds the GIL for the whole LAPACK call and a
    ctypes call releases it.  Every argument is a pointer; signature is the
    C prototype with double for scipy's double typedef, checked against the
    export so a different build fails at import instead of misreading
    memory.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    exported = _CAPSULE_NAME(capsule)
    found = exported.decode().replace("__pyx_t_5scipy_6linalg_13cython_lapack_d", "double")
    if found != signature:
        raise ImportError(f"cython_lapack.{name} is {found!r}, expected {signature!r}")
    nargs = signature.count(",") + 1
    proto = ctypes.CFUNCTYPE(None, *([ctypes.c_void_p] * nargs))
    return proto(_CAPSULE_POINTER(capsule, exported))


_POTRF = _lapack("dpotrf", "void (char *, int *, double *, int *, int *)")
_POTRS = _lapack(
    "dpotrs", "void (char *, int *, int *, double *, int *, double *, int *, int *)"
)
_LOWER = ctypes.c_char_p(b"L")


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def cholesky_lower(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """(factor, ok): LAPACK potrf of a symmetric positive definite matrix.

    factor is a Fortran-ordered copy of a whose lower triangle holds the
    Cholesky factor L (a = L L^T) and whose upper triangle keeps a's
    entries; ok is False when a leading minor is not positive, and the
    factor is then incomplete (LAPACK lets nan through with ok True).  Same
    bits as scipy.linalg.cho_factor(a, lower=True), without holding the
    GIL.
    """
    factor = np.array(a, dtype=float, order="F")
    n = factor.shape[0]
    info = ctypes.c_int(0)
    _POTRF(_LOWER, _int(n), factor.ctypes.data, _int(n), ctypes.byref(info))
    return factor, info.value == 0


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a vector b, given factor from cholesky_lower(a).

    Same bits as scipy.linalg.cho_solve((factor, True), b), without holding
    the GIL.
    """
    x = np.array(b, dtype=float)
    n = factor.shape[0]
    info = ctypes.c_int(0)
    _POTRS(
        _LOWER, _int(n), _int(1), factor.ctypes.data, _int(n), x.ctypes.data, _int(n),
        ctypes.byref(info),
    )
    return x


def _check_sym(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise InvalidMatrix("matrix is not symmetric")
    return 0.5 * (a + a.T)


def _eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigenvector signs cancel in q f(lam) q^T, so they are left as eigh gives
    # them; the descending order fixes the summation order of that product
    lam, q = scipy.linalg.eigh(_check_sym(a))
    return lam[::-1].copy(), q[:, ::-1].copy()


def pseudoinverse(a: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix via eigendecomposition.

    Eigenvalues at or below rel_tol * lambda_max are treated as exact zeros.
    A negative eigenvalue below -rel_tol * lambda_max raises NotPSD.
    """
    lam, q = _eigh_desc(a)
    if rel_tol is None:
        rel_tol = default_rank_tol(a.shape[0])
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    lmax = lam[0] if lam.size else 0.0
    cutoff = rel_tol * max(lmax, 0.0)
    if lam.size and lam[-1] < -cutoff and lam[-1] < -1e-14 * max(abs(lmax), 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} below tolerance {-cutoff:g}")
    inv = np.where(lam > cutoff, 1.0 / np.where(lam > cutoff, lam, 1.0), 0.0)
    out = (q * inv) @ q.T
    return 0.5 * (out + out.T)


def _check_psd(lam: np.ndarray) -> None:
    # lam descending; eigenvalues this far below zero are not roundoff
    if lam.size and lam[-1] < -1e-8 * max(lam[0], 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} is negative beyond tolerance")


def psd_eigvals(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric PSD matrix, checked as in psd_sqrt."""
    lam = scipy.linalg.eigvalsh(_check_sym(a))[::-1].copy()
    _check_psd(lam)
    return lam


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped to 0."""
    lam, q = _eigh_desc(a)
    _check_psd(lam)
    root = np.sqrt(np.clip(lam, 0.0, None))
    out = (q * root) @ q.T
    return 0.5 * (out + out.T)
