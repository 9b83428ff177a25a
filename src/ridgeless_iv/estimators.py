"""Estimators: the ridgeless interpolator and a split-sample lasso
instrumental-variable baseline."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matops import (
    cholesky_lower,
    cholesky_solve,
    default_rank_tol,
    lower_tail_qr,
    lower_tail_qr_solve,
    pseudoinverse,
)
from .sampling import Dataset


class InvalidData(ValueError):
    """Design or response is empty, mis-shaped or contains non-finite entries."""


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
    train_loss: float
    norm_l2: float
    iterations: int | None = None


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidData(f"incompatible shapes X{x.shape}, Y{y.shape}")
    if x.shape[0] == 0:
        raise InvalidData("empty sample: the design has no rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidData("non-finite entries in design or response")
    return x, y


def _result(x, y, theta, iterations=None) -> FitResult:
    resid = y - x @ theta
    return FitResult(
        theta_hat=theta,
        train_loss=float(resid @ resid) / x.shape[0],
        norm_l2=float(np.linalg.norm(theta)),
        iterations=iterations,
    )


# relative residual |X theta - Y| / |Y| above which the refined answer is
# not accepted and the design itself is solved
_RESID_TOL = 1e-12


@functools.lru_cache(maxsize=16)
def _strict_upper(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False  # shared by every fit of size n
    return mask


def _lower_tail(x: np.ndarray) -> bool:
    """True when x is wider than tall and its trailing n x n block is
    exactly lower triangular, as every compressed sample is.  A general
    design fails on row 0, so it pays an O(n) look only."""
    n, p = x.shape
    if p <= n or x[0, p - n + 1 :].any():
        return False
    return not np.logical_and(x[:, p - n :], _strict_upper(n)).any()


def _cholesky_solver(x: np.ndarray):
    # min-norm solve r -> X^T (X X^T)^-1 r, None for a numerically singular Gram
    factor, full_rank = cholesky_lower(x @ x.T)
    if full_rank:
        pivots = np.diag(factor) ** 2
        # false for a rank-deficient Gram, and for one that overflowed to inf (nan)
        full_rank = pivots.min() > default_rank_tol(len(x)) * pivots.max()
    return (lambda r: x.T @ cholesky_solve(factor, r)) if full_rank else None


def _qr_solver(x: np.ndarray):
    # min-norm solve r -> Q R^-T r, None when R's diagonal has a negligible
    # entry, at the cutoff pseudoinverse puts on singular values
    factor, t = lower_tail_qr(x)
    diag = np.abs(np.diagonal(factor, x.shape[1] - x.shape[0]))
    full_rank = diag.min() > default_rank_tol(max(x.shape)) * diag.max()
    return (lambda r: lower_tail_qr_solve(factor, t, r)) if full_rank else None


def min_norm_interpolator(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Least-norm solution of X theta = Y: theta = X^T (X X^T)^+ Y.

    A design wider than tall whose trailing n x n block is exactly lower
    triangular, as a compressed sample's Bartlett block is, is solved from
    a QR of X^T that starts from that triangle (matops.lower_tail_qr):
    about 2 (p - n) n^2 flops, and no Gram.  Any other design has its Gram
    X X^T Cholesky-factored.  Either factor gives the min-norm solve
    r -> X^+ r.  theta = X^+ Y is refined once with the solve of the
    residual Y - X theta, which takes the relative residual to working
    precision on Grams with condition numbers near 1e10.

    The QR counts as singular when an entry of |diag R| is at or below
    default_rank_tol(max(n, p)) times the largest, the fallback's cutoff on
    singular values; the Cholesky factor when it fails or a squared pivot
    is at or below default_rank_tol(n) times the largest.  A singular
    factor, or a refined answer whose relative residual is above 1e-12,
    gives way to an SVD least-squares solve of X itself
    (matops.pseudoinverse), the min-norm least-squares answer for any rank
    without squaring the condition number, as a pseudoinverse of the Gram
    would.  Every factor and solve runs without the GIL, so repetitions on
    a thread pool do not queue behind one another's.
    """
    x, y = _check_xy(x, y)
    solve = _qr_solver(x) if _lower_tail(x) else _cholesky_solver(x)
    if solve is not None:
        theta = solve(y)
        # refine theta itself, not the dual vector: X^T alpha loses digits to
        # cancellation when alpha is large, the small correction does not
        theta += solve(y - x @ theta)
        fit = _result(x, y, theta)
        if fit.train_loss * len(y) <= (_RESID_TOL * float(np.linalg.norm(y))) ** 2:
            return fit
    theta = pseudoinverse(x, y)
    return _result(x, y, theta)


# Relative slack of the zero certificate.  The screen takes X^T y from one
# gemv or gemm, the sweep each entry from its own dot product; the two
# differ by at most eps * sum_i |x_ij y_i|, far below this share of lam at
# the plug-in penalty, so the certificate never claims a zero the sweep
# would not return.
_SCREEN_MARGIN = 1e-9


def _zero_is_optimal(corr: np.ndarray, lam: float) -> bool:
    """True when theta = 0 already meets the lasso KKT conditions.

    corr is X^T y / n, the gradient of the loss at zero; zero is optimal
    when no entry exceeds lam.  The test asks for a relative margin below
    lam, so calls near the boundary (and lam = 0) go to the sweep.
    """
    return bool(np.abs(corr).max(initial=0.0) < (1.0 - _SCREEN_MARGIN) * lam)


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
    tol: float = 1e-6,
    max_iter: int = 2_000,
    *,
    _checked: bool = False,
) -> FitResult:
    """Coordinate descent for (1/2n)||Y - X theta||^2 + lam ||theta||_1.

    Full passes alternate with sweeps over the active set; convergence is
    declared on the KKT residual, checked after every full pass.  When
    X^T y / n already certifies theta = 0 (see _zero_is_optimal) no pass
    runs and the zero fit comes back with iterations=0.

    _checked is private to split_sample_lasso_iv: its second stage passes
    float slices of a sample it has checked already, so the shape and
    finiteness scan is skipped.  It is a keyword here rather than a
    separate core function so that every lasso fit still goes through the
    module name lasso_cd, which the benchmark tracer rebinds.
    """
    if lam < 0:
        raise ValueError(f"need lam >= 0, got {lam}")
    if not _checked:
        x, y = _check_xy(x, y)
    n, p = x.shape
    if _zero_is_optimal(x.T @ y / n, lam):
        # the zero fit's residual is y itself, so no product with x is
        # needed; a contiguous copy sums as y - x @ 0 would
        resid = np.ascontiguousarray(y)
        return FitResult(np.zeros(p), float(resid @ resid) / n, 0.0, iterations=0)
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
            return _result(x, y, theta, iterations=passes)
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
            return _result(x, y, theta, iterations=passes)
    raise ConvergenceFailure(
        f"no KKT point within {max_iter} passes",
        _result(x, y, theta, iterations=passes),
    )


def plugin_lambda(sigma_hat: float, n: int, p: int) -> float:
    """Standard lasso penalty rate 1.1 sigma sqrt(2 log(2p) / n)."""
    return 1.1 * sigma_hat * math.sqrt(2.0 * math.log(2.0 * max(p, 1)) / n)


def _lasso_theta(x, y, lam, checked=False) -> np.ndarray:
    try:
        fit = lasso_cd(x, y, lam, _checked=checked)
        return fit.theta_hat
    except ConvergenceFailure as fail:  # keep the best iterate
        return fail.result.theta_hat


def _instrument_features(data: Dataset, rows: np.ndarray) -> np.ndarray:
    """Observable instruments on the given rows: the signal factor scaled
    into covariate units.

    The signal block factors as A A^T with A its square root, so the
    instrument columns are W1 A restricted to the block's support.
    """
    sig = data.model.signal_eigs
    top = sig.max(initial=0.0)
    if top <= 0.0:
        return np.empty((rows.size, 0))
    support = np.flatnonzero(sig > 1e-14 * top)
    # a full support needs only the row gather (the np.ix_ gather of rows
    # and columns costs several times more); either gather is a fresh
    # C-ordered copy, scaled in place
    if support.size < sig.size:
        w1 = data.W1[np.ix_(rows, support)]
    else:
        w1 = data.W1[rows]
    w1 *= np.sqrt(sig[support])
    return w1


def split_sample_lasso_iv(data: Dataset, endo_idx, lambda_rule=plugin_lambda) -> FitResult:
    """Two-stage baseline on a half split.

    Half 1 runs a first-stage lasso of each endogenous column on the
    instrument features, then least squares of Y on the fitted endogenous
    values.  A column whose lasso selects nothing, or whose fitted value
    adds no new direction to the fits already accepted, falls back to
    marginal screening: it tries the instruments by |correlation| / norm,
    the highest unused score first, and never reuses an instrument an
    earlier column's screening took, so the second stage stays well posed
    under weak or shared instruments.  Endogenous columns that are
    themselves collinear on the estimation half cannot be separated by any
    instrument set and are rejected outright.  Half 2 removes the estimated
    endogenous contribution from Y and runs a lasso on the exogenous
    columns.  Each lasso's penalty is lambda_rule(sigma_hat, n, p) of its
    response's standard deviation, its row count and its column count.
    The half split is a permutation drawn from the dataset seed,
    so refits are reproducible.  A compressed sample (sampling.Dataset) has
    no model-coordinate instruments and raises InvalidData.

    One product of the endogenous columns with the half-1 instrument
    features serves the whole first stage: it certifies which columns'
    lasso fits are zero, so those skip lasso_cd, and gives the scores the
    screening picks from, one argmax per pick (ties go to the lower index).
    A fit costs about that product, the rank check, the lstsq and the
    second-stage screen.
    """
    if data.compressed:  # the instruments are W1 columns in model coordinates
        raise InvalidData("lasso_iv needs a sample in the model's columns, not a compressed one")
    x, y = _check_xy(data.X, data.Y)
    n, p = x.shape
    endo_idx = np.asarray(sorted(set(int(i) for i in np.atleast_1d(endo_idx))), dtype=int)
    if endo_idx.size and (endo_idx.min() < 0 or endo_idx.max() >= p):
        raise ValueError("endogenous index out of range")
    if endo_idx.size >= n / 2:
        raise ValueError("need fewer endogenous columns than half the sample")

    rng = np.random.default_rng([np.uint64(data.seed), np.uint64(0x51F7)])
    perm = rng.permutation(n)
    half1, half2 = perm[: n // 2], perm[n // 2 :]

    theta = np.zeros(p)
    if endo_idx.size:
        f1 = _instrument_features(data, half1)
        if f1.shape[1] == 0:
            raise SingularDesign("model has no instruments")
        endo1 = x[np.ix_(half1, endo_idx)]
        if np.linalg.matrix_rank(endo1) < endo_idx.size:
            raise SingularDesign("endogenous columns are collinear on the first-stage half")
        targets = np.ascontiguousarray(endo1.T)
        sigma = targets.std(axis=1)
        # |correlation| of each endogenous column (a row) with each instrument
        scores = np.abs(targets @ f1)
        # the zero certificate reads only the largest entry of |X^T y| / n,
        # and dividing by n keeps the entries' order
        peak = scores.max(axis=1, initial=0.0) / half1.size
        col_norm = np.sqrt(np.einsum("ij,ij->j", f1, f1))
        usable = col_norm > 0
        # an unusable or taken instrument scores -1, below any real score
        scores /= np.where(usable, col_norm, 1.0)
        scores[:, ~usable] = -1.0
        fitted = np.empty((half1.size, endo_idx.size))
        basis = np.empty_like(fitted)  # its first j columns span the accepted fits

        def fresh_direction(v, j):
            # component of v outside the first j accepted fits, None if negligible
            nrm = math.sqrt(float(v @ v))
            if nrm <= 0.0:
                return None
            accepted = basis[:, :j]
            resid = v - accepted @ (accepted.T @ v)
            rnorm = math.sqrt(float(resid @ resid))
            return resid / rnorm if rnorm > 1e-8 * nrm else None

        for j, target in enumerate(targets):
            lam = float(lambda_rule(float(sigma[j]), half1.size, f1.shape[1]))
            cand = unit = None
            if not _zero_is_optimal(peak[j : j + 1], lam):
                coef = _lasso_theta(f1, target, lam)
                if np.any(coef):
                    cand = f1 @ coef
                    unit = fresh_direction(cand, j)
            if unit is None:
                # weak or shared instruments: marginal screening
                score = scores[j]
                while True:
                    pick = int(score.argmax())
                    if score[pick] < 0:
                        raise SingularDesign("ran out of usable instruments")
                    zcol = f1[:, pick]
                    cand = zcol * (float(zcol @ target) / float(zcol @ zcol))
                    unit = fresh_direction(cand, j)
                    if unit is not None:
                        break
                    score[pick] = -1.0  # adds no new direction for this column
                scores[j + 1 :, pick] = -1.0  # taken
            fitted[:, j] = cand
            basis[:, j] = unit
        beta, _, rank, _ = np.linalg.lstsq(fitted, y[half1], rcond=None)
        if rank < endo_idx.size:
            raise SingularDesign("first-stage fitted values are collinear")
        theta[endo_idx] = beta
        y2 = y[half2] - x[np.ix_(half2, endo_idx)] @ beta
    else:
        y2 = y[half2]

    # the exogenous columns are the runs between endogenous ones: a slice
    # per run copies row segments, where a column take copies entry by entry
    cuts = np.r_[-1, endo_idx, p]
    runs = [x[half2, a + 1 : b] for a, b in zip(cuts[:-1], cuts[1:]) if b > a + 1]
    # one run is already a fresh C-ordered copy
    v2 = runs[0] if len(runs) == 1 else np.hstack([np.empty((half2.size, 0)), *runs])
    lam = float(lambda_rule(float(y2.std()), half2.size, v2.shape[1]))
    exo = np.ones(p, dtype=bool)
    exo[endo_idx] = False
    theta[exo] = _lasso_theta(v2, y2, lam, checked=True)
    return _result(x, y, theta)
