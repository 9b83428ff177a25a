"""Estimators: the ridgeless interpolator, its ridge oracle, and a
split-sample lasso instrumental-variable baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matops import default_rank_tol, pseudoinverse
from .sampling import Dataset


class InvalidData(ValueError):
    """Design or response contains non-finite entries."""


class InvalidLambda(ValueError):
    """Ridge penalty must be strictly positive."""


class SingularDesign(ValueError):
    """Second-stage design is rank deficient."""


class ConvergenceFailure(RuntimeError):
    """Iterative solver ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, result: "FitResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    method: str
    train_loss: float
    norm_l2: float
    iterations: int | None = None


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidData(f"incompatible shapes X{x.shape}, Y{y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidData("non-finite entries in design or response")
    return x, y


def _result(x, y, theta, method, iterations=None) -> FitResult:
    resid = y - x @ theta
    return FitResult(
        theta_hat=theta,
        method=method,
        train_loss=float(resid @ resid) / x.shape[0],
        norm_l2=float(np.linalg.norm(theta)),
        iterations=iterations,
    )


def min_norm_interpolator(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Least-norm solution of X theta = Y: theta = X^T (X X^T)^+ Y.

    The Gram X X^T is Cholesky-factored and the dual system solved, then
    theta is refined once with the dual solve of the residual Y - X theta,
    which takes the relative residual to working precision on Grams with
    condition numbers near 1e10.  When the factorization fails, or its
    smallest squared pivot ratio is at or below default_rank_tol(n), the
    Gram counts as rank deficient and the eigendecomposition pseudoinverse
    gives the answer.
    """
    x, y = _check_xy(x, y)
    gram = x @ x.T
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        pivots = np.diag(factor[0]) ** 2
        # false for a rank-deficient Gram, and for one that overflowed to inf (nan)
        full_rank = pivots.min() > default_rank_tol(len(y)) * pivots.max()
    except np.linalg.LinAlgError:
        full_rank = False
    if not full_rank:
        theta = x.T @ (pseudoinverse(gram) @ y)
        return _result(x, y, theta, "min_norm")
    theta = x.T @ scipy.linalg.cho_solve(factor, y, check_finite=False)
    # refine theta itself, not the dual vector: X^T alpha loses digits to
    # cancellation when alpha is large, the small correction does not
    theta += x.T @ scipy.linalg.cho_solve(factor, y - x @ theta, check_finite=False)
    return _result(x, y, theta, "min_norm")


def ridge(x: np.ndarray, y: np.ndarray, lam: float) -> FitResult:
    """theta = X^T (X X^T + n lam I)^{-1} Y, the dual form of ridge."""
    if lam <= 0:
        raise InvalidLambda(f"need lam > 0, got {lam}")
    x, y = _check_xy(x, y)
    n = x.shape[0]
    gram = x @ x.T + n * lam * np.eye(n)
    theta = x.T @ scipy.linalg.solve(gram, y, assume_a="pos")
    return _result(x, y, theta, "ridge")


def _soft(v: float, t: float) -> float:
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def lasso_cd(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> FitResult:
    """Coordinate descent for (1/2n)||Y - X theta||^2 + lam ||theta||_1.

    Full passes alternate with sweeps over the active set; convergence is
    declared on the KKT residual, checked after every full pass.
    """
    if lam < 0:
        raise InvalidLambda(f"need lam >= 0, got {lam}")
    x, y = _check_xy(x, y)
    n, p = x.shape
    col_sq = (x * x).sum(axis=0) / n
    theta = np.zeros(p)
    resid = y.copy()

    def sweep(idx) -> float:
        nonlocal resid
        delta = 0.0
        for j in idx:
            if col_sq[j] <= 0.0:
                continue
            old = theta[j]
            rho = float(x[:, j] @ resid) / n + col_sq[j] * old
            new = _soft(rho, lam) / col_sq[j]
            if new != old:
                resid += x[:, j] * (old - new)
                theta[j] = new
                delta = max(delta, abs(new - old))
        return delta

    def kkt_ok() -> bool:
        grad = x.T @ resid / n
        zero = theta == 0.0
        if np.any(np.abs(grad[zero]) > lam + tol):
            return False
        active = ~zero
        return not np.any(np.abs(grad[active] - lam * np.sign(theta[active])) > tol)

    passes = 0
    while passes < max_iter:
        sweep(range(p))
        passes += 1
        if kkt_ok():
            return _result(x, y, theta, "lasso", iterations=passes)
        # cheap inner sweeps over the current active set
        while passes < max_iter:
            active = np.flatnonzero(theta)
            if active.size == 0:
                break
            delta = sweep(active)
            passes += 1
            if delta <= tol * max(1.0, float(np.abs(theta).max())):
                break
        if kkt_ok():
            return _result(x, y, theta, "lasso", iterations=passes)
    raise ConvergenceFailure(
        f"no KKT point within {max_iter} passes",
        _result(x, y, theta, "lasso", iterations=passes),
    )


def plugin_lambda(sigma_hat: float, n: int, p: int) -> float:
    """Standard lasso penalty rate 1.1 sigma sqrt(2 log(2p) / n)."""
    return 1.1 * sigma_hat * math.sqrt(2.0 * math.log(2.0 * max(p, 1)) / n)


def _lasso_theta(x, y, lam, tol, max_iter) -> np.ndarray:
    try:
        return lasso_cd(x, y, lam, tol=tol, max_iter=max_iter).theta_hat
    except ConvergenceFailure as fail:  # keep the best iterate
        return fail.result.theta_hat


@dataclass(frozen=True)
class LassoIVConfig:
    lambda_rule: object = None  # callable (sigma_hat, n, p) -> lam; default plug-in
    tol: float = 1e-6
    max_iter: int = 2_000

    def penalty(self, sigma_hat: float, n: int, p: int) -> float:
        if self.lambda_rule is not None:
            return float(self.lambda_rule(sigma_hat, n, p))
        return plugin_lambda(sigma_hat, n, p)


def _instrument_features(data: Dataset) -> np.ndarray:
    """Observable instruments: the signal factor scaled into covariate units.

    The signal block factors as A A^T with A its square root, so the
    instrument columns are W1 A restricted to the block's support.
    """
    sig = data.model.cov.signal_eigs
    top = sig.max(initial=0.0)
    if top <= 0.0:
        return np.empty((data.W1.shape[0], 0))
    support = np.flatnonzero(sig > 1e-14 * top)
    return data.W1[:, support] * np.sqrt(sig[support])[None, :]


def split_sample_lasso_iv(
    data: Dataset,
    endo_idx,
    config: LassoIVConfig | None = None,
) -> FitResult:
    """Two-stage baseline on a half split.

    Half 1 runs a first-stage lasso of each endogenous column on the
    instrument features, then least squares of Y on the fitted endogenous
    values.  A column whose lasso selects nothing, or whose fitted value
    adds no new direction to the fits already accepted, falls back to
    marginal screening, walking down the correlation order and never
    reusing an instrument already taken, so the second stage stays well
    posed under weak or shared instruments.  Endogenous columns that are
    themselves collinear on the estimation half cannot be separated by any
    instrument set and are rejected outright.  Half 2 removes the estimated
    endogenous contribution from Y and runs a lasso on the exogenous
    columns.  The half split is a permutation drawn from the dataset seed,
    so refits are reproducible.
    """
    config = config or LassoIVConfig()
    x, y = _check_xy(data.X, data.Y)
    n, p = x.shape
    endo_idx = np.asarray(sorted(set(int(i) for i in np.atleast_1d(endo_idx))), dtype=int)
    if endo_idx.size and (endo_idx.min() < 0 or endo_idx.max() >= p):
        raise ValueError("endogenous index out of range")
    if endo_idx.size >= n / 2:
        raise ValueError("need fewer endogenous columns than half the sample")
    exo_idx = np.setdiff1d(np.arange(p), endo_idx)

    rng = np.random.default_rng([np.uint64(data.seed), np.uint64(0x51F7)])
    perm = rng.permutation(n)
    half1, half2 = perm[: n // 2], perm[n // 2 :]

    theta = np.zeros(p)
    if endo_idx.size:
        feats = _instrument_features(data)
        if feats.shape[1] == 0:
            raise SingularDesign("model has no instruments")
        if np.linalg.matrix_rank(x[np.ix_(half1, endo_idx)]) < endo_idx.size:
            raise SingularDesign("endogenous columns are collinear on the first-stage half")
        f1 = feats[half1]
        col_norm = np.linalg.norm(f1, axis=0)
        taken = np.zeros(f1.shape[1], dtype=bool)
        fitted = np.empty((half1.size, endo_idx.size))
        basis = np.zeros((half1.size, 0))

        def fresh_direction(v):
            # component of v outside the accepted fits, None if negligible
            nrm = float(np.linalg.norm(v))
            if nrm <= 0.0:
                return None
            resid = v - basis @ (basis.T @ v)
            rnorm = float(np.linalg.norm(resid))
            return resid / rnorm if rnorm > 1e-8 * nrm else None

        for j, col in enumerate(endo_idx):
            target = x[half1, col]
            lam = config.penalty(float(target.std()), half1.size, f1.shape[1])
            coef = _lasso_theta(f1, target, lam, config.tol, config.max_iter)
            cand = f1 @ coef if np.any(coef) else None
            unit = fresh_direction(cand) if cand is not None else None
            if unit is None:
                # weak or shared instruments: marginal screening
                score = np.abs(f1.T @ target) / np.where(col_norm > 0, col_norm, 1.0)
                score[taken | (col_norm == 0)] = -1.0
                for pick in np.argsort(score)[::-1]:
                    if score[pick] < 0:
                        raise SingularDesign("ran out of usable instruments")
                    zcol = f1[:, pick]
                    cand = zcol * (float(zcol @ target) / float(zcol @ zcol))
                    unit = fresh_direction(cand)
                    if unit is not None:
                        taken[pick] = True
                        break
                else:
                    raise SingularDesign("ran out of usable instruments")
            fitted[:, j] = cand
            basis = np.hstack([basis, unit[:, None]])
        beta, _, rank, _ = np.linalg.lstsq(fitted, y[half1], rcond=None)
        if rank < endo_idx.size:
            raise SingularDesign("first-stage fitted values are collinear")
        theta[endo_idx] = beta
        y2 = y[half2] - x[np.ix_(half2, endo_idx)] @ beta
    else:
        y2 = y[half2]

    v2 = x[np.ix_(half2, exo_idx)]
    lam = config.penalty(float(y2.std()), half2.size, exo_idx.size)
    theta[exo_idx] = _lasso_theta(v2, y2, lam, config.tol, config.max_iter)
    return _result(x, y, theta, "lasso_iv")
