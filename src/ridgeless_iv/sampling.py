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

    Everything is in the sample's own columns: X = W1 sqrt(signal_eigs) +
    W2 sqrt(latent-noise block) row by row, and Y = X true_coef + xi
    exactly.  W2 is n x k, the latent factor on the block's support (the
    first k coordinates, see draw_factors), so only X[:, :k] carries a W2
    term.  Score a fit of (X, Y) with projected_rmse(theta, true_coef,
    signal_eigs).

    A sample from the direct route has the model's columns: true_coef and
    signal_eigs are the model's own vectors.  A compressed sample (see
    sample_dataset) has m + 1 + n columns [head, z, L], signal_eigs =
    [s_H, lam, lam 1_n] and true_coef = [theta0_H, |theta0_T|, 0_n].  W1, W2
    are kept so downstream checks can rebuild the factor form without
    re-deriving it from X.
    """

    X: np.ndarray
    Y: np.ndarray
    xi: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    seed: int
    model: EndogenousModel
    true_coef: np.ndarray
    signal_eigs: np.ndarray

    @property
    def compressed(self) -> bool:
        """True when the columns are not the model's (true_coef is not the
        model's own vector)."""
        return self.true_coef is not self.model.true_coef


def _latent_width(model: EndogenousModel) -> int:
    """1 + the last index where the latent-noise block is positive (0 if
    none).  Every positive entry counts, with no rank cutoff as in
    covariance.latent_support: a draw needs the covariance as it is."""
    nz = np.flatnonzero(model.endo_eigs)
    return int(nz[-1]) + 1 if nz.size else 0


def _draw(model: EndogenousModel, n: int, width: int, rng: np.random.Generator):
    # (W1 n x width, W2 n x k, xi) in that draw order, then the scalar noise
    k = _latent_width(model)
    w1 = rng.standard_normal((n, width))
    w2 = rng.standard_normal((n, k))
    g = rng.standard_normal(n)
    xi = w2 @ model.whitened_cross[:k] + np.sqrt(model.resid_noise_var) * g
    return w1, w2, xi


def draw_factors(model: EndogenousModel, n: int, rng: np.random.Generator):
    """(W1, W2, xi) from rng, drawn in the order W1 (n x p), W2 (n x k),
    then the scalar noise g; xi = W2 whitened_cross[:k]
    + sqrt(resid_noise_var) g.

    k is 1 + the last index where the latent-noise block is nonzero (0 for
    an exogenous model): the block, and with it the covariate-error
    covariance, vanishes from coordinate k on.  This is the direct route's
    drawing convention, shared by sample_dataset (for models without a
    usable flat tail) and the CGMT tail check, so the same seed gives the
    same factors in both.
    """
    return _draw(model, n, model.p, rng)


def factor_design(w1, w2, signal_eigs, endo_eigs) -> np.ndarray:
    """The design W1 sqrt(signal_eigs) + W2 sqrt(latent-noise block) for W2
    on the block's support, the first k = W2.shape[1] columns."""
    k = w2.shape[1]
    x = w1 * np.sqrt(signal_eigs)
    x[:, :k] += w2 * np.sqrt(endo_eigs[:k])
    return x


def _flat_tail_start(model: EndogenousModel, n: int) -> int | None:
    """Start m of the signal diagonal's exactly flat tail when a sample of
    size n can be drawn compressed, else None.

    The tail must leave p - m - 1 >= n columns besides the direction of
    theta0's tail (the Bartlett factor needs that many degrees of freedom)
    and lie past the latent block, so it carries no W2 term.
    """
    sig = model.signal_eigs
    differs = np.flatnonzero(sig != sig[-1])
    m = int(differs[-1]) + 1 if differs.size else 0
    if model.p - m - 1 >= n and _latent_width(model) <= m:
        return m
    return None


def _compressed_factors(model: EndogenousModel, n: int, m: int, rng: np.random.Generator):
    # (W1 = [W_H, z, L], W2, xi, metric, coefficient) in the compressed columns
    w_head, w2, xi = _draw(model, n, m, rng)
    w1 = np.zeros((n, m + 1 + n))
    w1[:, :m] = w_head
    w1[:, m] = rng.standard_normal(n)
    lower = w1[:, m + 1 :]  # the Bartlett factor L, filled in place
    # a boolean mask assigns in row-major order: row by row below the diagonal
    lower[np.tri(n, k=-1, dtype=bool)] = rng.standard_normal(n * (n - 1) // 2)
    lower[np.diag_indices(n)] = np.sqrt(rng.chisquare(model.p - m - 1 - np.arange(n)))
    sig, theta = model.signal_eigs, model.true_coef
    metric = np.concatenate([sig[:m], np.full(n + 1, sig[-1])])
    coef = np.concatenate([theta[:m], [np.linalg.norm(theta[m:])], np.zeros(n)])
    return w1, w2, xi, metric, coef


def _sample(model: EndogenousModel, n: int, seed: int, dof: float | None, m: int | None):
    """The sample on the direct route (m None) or the compressed one with the
    flat tail starting at m; dof None is the Gaussian instrument."""
    rng = np.random.default_rng(seed)
    if m is None:
        w1, w2, xi = draw_factors(model, n, rng)
        metric, coef = model.signal_eigs, model.true_coef
    else:
        w1, w2, xi, metric, coef = _compressed_factors(model, n, m, rng)
    if dof is not None:
        w1 *= np.sqrt((dof - 2.0) / rng.chisquare(dof, size=n))[:, None]
    x = factor_design(w1, w2, metric, model.endo_eigs)
    y = x @ coef + xi
    return Dataset(
        X=x, Y=y, xi=xi, W1=w1, W2=w2, seed=int(seed), model=model,
        true_coef=coef, signal_eigs=metric,
    )


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
    is drawn on the block's support only.  Under the t instrument only W1
    is replaced by variance-matched multivariate t rows, z_i
    sqrt((dof-2)/chi2_i) with one mixing scalar per row, which multiplies
    the whole row of W1.  On both routes the mixing chi-squares are drawn
    last, so the Gaussian part of a run is unchanged by switching
    instrument law.

    Direct route: W1 (n x p), W2 (n x k), scalar noise (draw_factors).

    Compressed route, taken whenever the signal diagonal equals its last
    value lam exactly from index m on, with p - m - 1 >= n and the latent
    block ending at or before m.  Rotating the flat tail so that theta0's
    tail direction comes first splits its factor into z = W_T theta0_T /
    |theta0_T| ~ N(0, I_n) and an independent n x (p - m - 1) Gaussian
    block R.  The min-norm fit and its projected error depend on R only
    through R R^T ~ Wishart(n, p - m - 1), which has the law of L L^T for
    the lower Bartlett factor L: sqrt(chi2(p - m - 1 - i)) on the diagonal
    (row i from 0), standard normals below it (Bartlett 1933; Anderson,
    An Introduction to Multivariate Statistical Analysis, ch. 7).  So
    W1 = [W_H, z, L] is n x (m + 1 + n) and the sample has the same joint
    law of X X^T, Y and the projected error as the direct one.  Draw order:
    W_H (n x m), W2 (n x k), scalar noise, z, the below-diagonal normals of
    L row by row, then its diagonal chi-squares.
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
    else:
        dof = None
    return _sample(model, n, seed, dof, _flat_tail_start(model, n))
