"""Reference solvers that the tests compare the package against."""

import numpy as np


def ridge(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """theta = X^T (X X^T + n lam I)^{-1} Y, the dual form of ridge, by a
    plain LU solve."""
    n = x.shape[0]
    return x.T @ np.linalg.solve(x @ x.T + n * lam * np.eye(n), y)
