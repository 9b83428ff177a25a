"""Draws from the joint covariate/error law, Gaussian or t-instrument."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import EndogenousModel


class InfiniteVariance(ValueError):
    """t draws need more than 2 degrees of freedom for a finite covariance."""


@dataclass(frozen=True)
class Dataset:
    """One sample plus the latent factors that generated it.

    X = W1 sqrt(signal block) + W2 sqrt(latent-noise block) row by row, and
    Y = X true_coef + xi exactly.  W1 is n x p; W2 is n x k, the latent
    factor on the block's support (the first k coordinates, see
    draw_factors), so only X[:, :k] carries a W2 term.  W1, W2 are kept so
    downstream checks can rebuild the factor form without re-deriving it
    from X.
    """

    X: np.ndarray
    Y: np.ndarray
    xi: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    seed: int
    model: EndogenousModel


def draw_factors(model: EndogenousModel, n: int, rng: np.random.Generator):
    """(W1, W2, xi) from rng, drawn in the order W1 (n x p), W2 (n x k),
    then the scalar noise g; xi = W2 whitened_cross[:k]
    + sqrt(resid_noise_var) g.

    k is 1 + the last index where the latent-noise block is nonzero (0 for
    an exogenous model): the block, and with it the covariate-error
    covariance, vanishes from coordinate k on.  This is the one drawing
    convention shared by sample_dataset and the CGMT tail check, so the same
    seed gives the same factors in both.
    """
    nz = np.flatnonzero(model.cov.endo_eigs)
    k = int(nz[-1]) + 1 if nz.size else 0
    w1 = rng.standard_normal((n, model.p))
    w2 = rng.standard_normal((n, k))
    g = rng.standard_normal(n)
    xi = w2 @ model.whitened_cross[:k] + np.sqrt(model.resid_noise_var) * g
    return w1, w2, xi


def sample_dataset(
    model: EndogenousModel,
    n: int,
    seed: int,
    instrument_dist: str = "gaussian",
    dof: float | None = None,
) -> Dataset:
    """One i.i.d. sample of size n from the model.

    The error is synthesized from the latent-noise factor plus an extra
    scalar Gaussian, which reproduces the covariate-error covariance and the
    error variance without a (p+1)-dimensional Cholesky.  The latent factor
    is drawn on the block's support only (draw_factors).  Under the t
    instrument only W1 is replaced by variance-matched multivariate t rows,
    z_i sqrt((dof-2)/chi2_i) with one mixing scalar per row; draw order is
    W1 (n x p), W2 (n x k), scalar noise, then the mixing chi-squares, so
    the Gaussian part of a run is unchanged by switching instrument law.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if instrument_dist not in ("gaussian", "student_t"):
        raise ValueError(f"unknown instrument distribution {instrument_dist!r}")
    if instrument_dist == "student_t":
        if dof is None:
            raise ValueError("student_t needs dof")
        if dof <= 2:
            raise InfiniteVariance(f"need dof > 2, got {dof}")

    cov = model.cov
    rng = np.random.default_rng(seed)
    w1, w2, xi = draw_factors(model, n, rng)
    if instrument_dist == "student_t":
        w1 *= np.sqrt((dof - 2.0) / rng.chisquare(dof, size=n))[:, None]

    k = w2.shape[1]
    x = w1 * np.sqrt(cov.signal_eigs)
    x[:, :k] += w2 * np.sqrt(cov.endo_eigs[:k])
    y = x @ model.true_coef + xi
    return Dataset(X=x, Y=y, xi=xi, W1=w1, W2=w2, seed=int(seed), model=model)
