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
    Y = X true_coef + xi exactly.  W1, W2 are kept so downstream checks can
    rebuild the factor form without re-deriving it from X.
    """

    X: np.ndarray
    Y: np.ndarray
    xi: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    seed: int
    model: EndogenousModel


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
    error variance without a (p+1)-dimensional Cholesky.  Under the t
    instrument only W1 is replaced by variance-matched multivariate t rows,
    z_i sqrt((dof-2)/chi2_i) with one mixing scalar per row; draw order is
    W1, W2, scalar noise, then the mixing chi-squares, so the Gaussian part
    of a run is unchanged by switching instrument law.
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
    p = cov.p
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((n, p))
    w2 = rng.standard_normal((n, p))
    g = rng.standard_normal(n)
    if instrument_dist == "student_t":
        mix = np.sqrt((dof - 2.0) / rng.chisquare(dof, size=n))
        w1 = w1 * mix[:, None]

    x = w1 * np.sqrt(cov.signal_eigs)
    x += w2 * np.sqrt(cov.endo_eigs)
    xi = w2 @ model.whitened_cross + np.sqrt(model.resid_noise_var) * g
    y = x @ model.true_coef + xi
    return Dataset(X=x, Y=y, xi=xi, W1=w1, W2=w2, seed=int(seed), model=model)
