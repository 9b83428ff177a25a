"""Dense linear algebra primitives shared by every other module, and the only
module that calls scipy's LAPACK.

All routines are pure: they never mutate their inputs and hold no state, so
results can be shared freely across threads.  scipy.linalg itself is imported
only inside pseudoinverse and psd_eigvals, so that the sweeps and the tail
check, which never call them, do not pay for loading it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np


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


def _scipy_linalg_dir() -> Path:
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return Path(spec.submodule_search_locations[0]) / "linalg"


def _load_cython_lapack():
    """scipy.linalg.cython_lapack, executed straight from its file.

    Importing it by name would first run scipy/linalg/__init__.py, which
    costs far more time and memory than the capsules it is needed for.
    The module enters itself in sys.modules while it executes; that entry
    is taken out again, so a later import of scipy.linalg.cython_lapack
    goes through the normal machinery, binds the attribute on scipy.linalg
    and gets this same module back (a Cython module is a singleton).
    """
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = _scipy_linalg_dir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"cython_lapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"no cython_lapack extension module in {folder}")


_CYTHON_LAPACK = _load_cython_lapack()


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
    capsule = _CYTHON_LAPACK.__pyx_capi__[name]
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
_GELSY = _lapack(
    "dgelsy",
    "void (int *, int *, int *, double *, int *, double *, int *, int *, double *, int *,"
    " double *, int *, int *)",
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


def gelsy_lstsq(a: np.ndarray, b: np.ndarray, rcond: float) -> np.ndarray:
    """Minimum-norm least-squares solution of a x = b for a vector b.

    LAPACK gelsy: a rank-revealing QR with column pivoting, which treats
    singular values below rcond times the largest as zero, on the workspace
    size gelsy itself asks for.  Same bits as scipy.linalg.lstsq(a, b,
    cond=rcond, lapack_driver="gelsy"), without holding the GIL.
    """
    work_a = np.array(a, dtype=float, order="F")
    m, n = work_a.shape
    x = np.zeros(max(m, n, 1))  # b on entry, the solution in its first n rows on exit
    x[:m] = b
    jpvt = np.zeros(n, dtype=np.intc)  # every column free to pivot
    rank, info, query = ctypes.c_int(0), ctypes.c_int(0), ctypes.c_double(0.0)

    def call(work, lwork: int) -> None:
        _GELSY(
            _int(m), _int(n), _int(1), work_a.ctypes.data, _int(max(m, 1)), x.ctypes.data,
            _int(x.size), jpvt.ctypes.data, ctypes.byref(ctypes.c_double(rcond)),
            ctypes.byref(rank), work, _int(lwork), ctypes.byref(info),
        )
        if info.value != 0:
            raise ValueError(f"illegal value in argument {-info.value} of gelsy")

    call(ctypes.byref(query), -1)
    work = np.empty(int(query.value))
    call(work.ctypes.data, work.size)
    return x[:n].copy()


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


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix via eigendecomposition.

    Eigenvalues at or below tol * lambda_max, tol = default_rank_tol(dim),
    are treated as exact zeros.  A negative eigenvalue below -tol *
    lambda_max raises NotPSD.
    """
    import scipy.linalg  # here, not at the top: no sweep or tail check needs it

    lam, q = scipy.linalg.eigh(_check_sym(a))
    # eigenvector signs cancel in q inv(lam) q^T, so they are left as eigh
    # gives them; the descending order fixes the summation order of that product
    lam, q = lam[::-1].copy(), q[:, ::-1].copy()
    lmax = lam[0] if lam.size else 0.0
    cutoff = default_rank_tol(a.shape[0]) * max(lmax, 0.0)
    if lam.size and lam[-1] < -cutoff and lam[-1] < -1e-14 * max(abs(lmax), 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} below tolerance {-cutoff:g}")
    inv = np.where(lam > cutoff, 1.0 / np.where(lam > cutoff, lam, 1.0), 0.0)
    out = (q * inv) @ q.T
    return 0.5 * (out + out.T)


def psd_eigvals(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric PSD matrix; one below
    -1e-8 max(lambda_max, 1), which is not roundoff, raises NotPSD."""
    import scipy.linalg

    lam = scipy.linalg.eigvalsh(_check_sym(a))[::-1].copy()
    if lam.size and lam[-1] < -1e-8 * max(lam[0], 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} is negative beyond tolerance")
    return lam

