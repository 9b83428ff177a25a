"""Reference solvers that the tests compare the package against, and the
designs they are compared on."""

import numpy as np


def ridge(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """theta = X^T (X X^T + n lam I)^{-1} Y, the dual form of ridge, by a
    plain LU solve."""
    n = x.shape[0]
    return x.T @ np.linalg.solve(x @ x.T + n * lam * np.eye(n), y)


def lower_tail_design(rng: np.random.Generator, n: int, head: int) -> np.ndarray:
    """[A, B]: an n x head Gaussian head and a Bartlett factor B (chi
    diagonal, standard normals below it), the shape and conditioning of a
    compressed sample."""
    lower = np.tril(rng.standard_normal((n, n)), -1)
    lower[np.diag_indices(n)] = np.sqrt(rng.chisquare(2 * n + 5 - np.arange(n)))
    return np.hstack([rng.standard_normal((n, head)), lower])
