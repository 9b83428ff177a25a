"""Dense linear algebra primitives shared by every other module, and the only
module that calls scipy's LAPACK.

All routines are pure: they never mutate their inputs and hold no state, so
results can be shared freely across threads.  The eigensolver and the SVD
least squares are numpy's; the other LAPACK routines come from the capsules
of scipy's cython_lapack extension module, so nothing imports scipy.linalg.
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
_TPQRT = _lapack(
    "dtpqrt",
    "void (int *, int *, int *, int *, double *, int *, double *, int *, double *, int *,"
    " double *, int *)",
)
_TPMQRT = _lapack(
    "dtpmqrt",
    "void (char *, char *, int *, int *, int *, int *, int *, double *, int *, double *,"
    " int *, double *, int *, double *, int *, double *, int *)",
)
_TRTRS = _lapack(
    "dtrtrs", "void (char *, char *, char *, int *, int *, double *, int *, double *, int *, int *)"
)
_LOWER = _LEFT = ctypes.c_char_p(b"L")
_UPPER = ctypes.c_char_p(b"U")
_NO_TRANS = ctypes.c_char_p(b"N")
_TRANS = ctypes.c_char_p(b"T")
# block size of the triangular-pentagonal QR; on setup ii samples 16 and 32
# were within 15% of each other from n = 100 to 1000 (16 ahead below
# n = 300, 32 above), and 64 was slower at every n
_QR_BLOCK = 32


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


# read-only scalar arguments shared by every call
_ZERO, _ONE = _int(0), _int(1)


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


def pseudoinverse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = a^+ b, the minimum-norm least-squares solution of a x = b for a
    vector b.

    numpy's lstsq (LAPACK gelsd, an SVD by divide and conquer), which treats
    singular values at or below default_rank_tol(max(m, n)) times the
    largest as zero.  numpy releases the GIL for the LAPACK call.
    """
    return np.linalg.lstsq(a, b, rcond=default_rank_tol(max(a.shape)))[0]


def lower_tail_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(factor, t): QR of x^T for an n x p design x = [A, B] whose trailing
    n x n block B is lower triangular (p >= n).  B's strict upper triangle
    is not read: the caller checks that it is zero.

    B^T is upper triangular, so with it stacked above A^T LAPACK tpqrt
    folds in the p - n rows of A^T at about 2 (p - n) n^2 flops:
    [B^T; A^T] = Q [R; 0] with R upper triangular.  Read in Fortran order
    with leading dimension p, the rows of a C-ordered x are the columns of
    x^T, so the factorization runs on one copy of x and makes no transpose.
    factor is that copy: its trailing block holds R^T in the lower
    triangle, and its head holds the transposed reflectors V^T.  t holds
    the triangular factors of the block reflectors; t.T is LAPACK's
    nb x n array.  Same bits as scipy.linalg.lapack.dtpqrt(0, nb, B^T,
    A^T), without holding the GIL.
    """
    factor = np.array(x, dtype=float, order="C")
    if factor.ndim != 2 or not 1 <= factor.shape[0] <= factor.shape[1]:
        raise ValueError(f"need an n x p design with 1 <= n <= p, got shape {factor.shape}")
    n, p = factor.shape
    head = p - n
    nb = min(_QR_BLOCK, n)
    t = np.zeros((n, nb))
    work = np.empty(nb * n)
    info = ctypes.c_int(0)
    _TPQRT(
        _int(head), _int(n), _ZERO, _int(nb), factor.ctypes.data + head * factor.itemsize,
        _int(p), factor.ctypes.data, _int(p), t.ctypes.data, _int(nb), work.ctypes.data,
        ctypes.byref(info),
    )
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of tpqrt")
    return factor, t


def lower_tail_qr_solve(factor: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution theta of x theta = b for a vector b, given
    (factor, t) from lower_tail_qr(x) with R nonsingular.

    x = R^T Q^T on Q's first n columns, so theta = Q [R^-T b; 0]: one
    triangular solve (LAPACK trtrs) and one pass of the reflectors
    (tpmqrt), neither holding the GIL.  theta comes back in x's column
    order.
    """
    n, p = factor.shape
    head = p - n
    nb = t.shape[1]
    theta = np.zeros(p)  # [0; b] on entry: the solve runs in place on the tail
    theta[head:] = b
    work = np.empty(nb)
    f_ptr, out = factor.ctypes.data, theta.ctypes.data
    tail = out + head * theta.itemsize
    info = ctypes.c_int(0)
    _TRTRS(
        _UPPER, _TRANS, _NO_TRANS, _int(n), _ONE, f_ptr + head * factor.itemsize, _int(p), tail,
        _int(n), ctypes.byref(info),
    )
    if info.value != 0:  # below 0 an illegal argument, above 0 a zero diagonal entry
        raise ValueError(f"trtrs failed with info {info.value}")
    _TPMQRT(
        _LEFT, _NO_TRANS, _int(head), _ONE, _int(n), _ZERO, _int(nb), f_ptr, _int(p),
        t.ctypes.data, _int(nb), tail, _int(n), out, _int(max(head, 1)), work.ctypes.data,
        ctypes.byref(info),
    )
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of tpmqrt")
    return theta


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


def psd_eigvals(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric PSD matrix; one below
    -1e-8 max(lambda_max, 1), which is not roundoff, raises NotPSD."""
    lam = np.linalg.eigvalsh(_check_sym(a))[::-1].copy()
    if lam.size and lam[-1] < -1e-8 * max(lam[0], 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} is negative beyond tolerance")
    return lam

