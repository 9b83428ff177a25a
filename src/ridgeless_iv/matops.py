"""Dense symmetric linear algebra primitives shared by every other module.

All routines are pure: they never mutate their inputs and hold no state, so
results can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class InvalidMatrix(ValueError):
    """Input matrix is non-finite, non-square, or not symmetric."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance."""


def default_rank_tol(dim: int) -> float:
    # deterministic cutoff for truncated spectra that contain exact zeros
    return dim * np.finfo(float).eps * 64.0


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


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped to 0."""
    lam, q = _eigh_desc(a)
    lmax = lam[0] if lam.size else 0.0
    if lam.size and lam[-1] < -1e-8 * max(lmax, 1.0):
        raise NotPSD(f"eigenvalue {lam[-1]:g} is negative beyond tolerance")
    root = np.sqrt(np.clip(lam, 0.0, None))
    out = (q * root) @ q.T
    return 0.5 * (out + out.T)


def null_space_basis(m: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a rectangular matrix.

    Returns a p x (p - rank) matrix with M @ basis ~ 0; the empty case gives
    a p x 0 array.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidMatrix(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix has non-finite entries")
    if rel_tol is None:
        rel_tol = default_rank_tol(max(m.shape))
    _, s, vt = scipy.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > rel_tol * smax)) if smax > 0 else 0
    return vt[rank:].T.copy()
