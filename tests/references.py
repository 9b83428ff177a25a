"""Reference solvers that the tests compare the package against (among
them the column-by-column lasso IV and the one-draw primary solve), the
designs they are compared on, the closed-form smallest eigenvalue of a
model's joint covariance, and the Monte Carlo norm effective ranks that
the rank identities are checked with."""

import math
from dataclasses import dataclass

import numpy as np

from ridgeless_iv.cgmt_lab import (
    _FEAS_REL,
    _T_GRID,
    NoFeasiblePoint,
    PoSolution,
    _ao_at_nu,
    _ao_phi,
    _sphere_min,
)
from ridgeless_iv.estimators import (
    FitResult,
    InvalidData,
    SingularDesign,
    _check_xy,
    _instrument_features,
    _lasso_theta,
    _result,
    _zero_is_optimal,
    plugin_lambda,
)
from ridgeless_iv.matops import default_rank_tol
from ridgeless_iv.metrics import ZeroMatrix, _eigs_of
from ridgeless_iv.sampling import Dataset


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


_GOLDEN_STEPS = 24
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_window_min(r, nu):
    """min over the t window of L + S at one nu per draw, the way the
    comparison solver searched it before it used the slope: the 16-position
    grid, then 24 golden-section steps between the grid neighbours of its
    best node, keeping the best value seen.  Returns (phi, g)."""
    at = _ao_at_nu(r, nu[:, None])
    rows, k = np.arange(nu.size), _T_GRID.size
    phi = _ao_phi(at, _T_GRID[None])
    j = phi.argmin(axis=1)
    best = [phi[rows, j], _T_GRID[j]]

    def at_g(g):
        f = _ao_phi(at, g[:, None])[:, 0]
        better = f < best[0]
        best[:] = np.where(better, f, best[0]), np.where(better, g, best[1])
        return f

    a, b = _T_GRID[np.maximum(j - 1, 0)], _T_GRID[np.minimum(j + 1, k - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = at_g(c), at_g(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - _INV_PHI * (b - a), d), np.where(left, c, a + _INV_PHI * (b - a))
        fx = at_g(np.where(left, c, d))
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return best[0], best[1]


def max_projected_error_one(design, xi, ball_radius, theta0, sig) -> PoSolution:
    """The primary optimum of one design, solved on its own the way
    cgmt_lab.max_projected_error did before the stacked solve: one SVD, the
    min-norm particular solution, and _sphere_min on the null-space sphere
    with 1-D arrays.  Raises NoFeasiblePoint with the package's messages."""
    left, sv, vt = np.linalg.svd(design)
    n, p = design.shape
    rank = int(np.count_nonzero(sv > default_rank_tol(max(n, p)) * np.max(sv, initial=0.0)))
    part = vt[:rank].T @ ((left[:, :rank].T @ xi) / sv[:rank])
    gap = float(np.linalg.norm(design @ part - xi))
    if gap > _FEAS_REL * (1.0 + float(np.linalg.norm(xi))):
        raise NoFeasiblePoint(f"linear system inconsistent, residual {gap:g}")

    basis = vt[rank:].T
    m = basis.shape[1]
    d = part + theta0
    if m == 0:
        if float(np.linalg.norm(d)) > ball_radius * (1.0 + _FEAS_REL):
            raise NoFeasiblePoint("unique interpolant falls outside the ball")
        return PoSolution(float(part @ (sig * part)), part, 0)

    center = -(basis.T @ d)
    fixed = d + basis @ center  # component of d orthogonal to the null space
    rad_sq = ball_radius**2 - float(fixed @ fixed)
    if rad_sq < -_FEAS_REL * ball_radius**2:
        raise NoFeasiblePoint("coefficient ball misses the solution set")
    radius = math.sqrt(max(rad_sq, 0.0))

    a = basis.T @ (sig[:, None] * basis)
    a = 0.5 * (a + a.T)
    anchor = part + basis @ center
    b = basis.T @ (sig * anchor)
    lam, vec = np.linalg.eigh(a)
    w, _ = _sphere_min(-lam[::-1], -(b @ vec)[::-1], radius)
    theta_prime = anchor + basis @ (vec @ w[::-1])
    return PoSolution(float(theta_prime @ (sig * theta_prime)), theta_prime, m)


def joint_min_eigenvalue(model) -> float:
    """Smallest eigenvalue of the model's joint factor-and-error covariance.

    The (2p+1)-dim matrix is block [[I,0,0],[0,I,rho],[0,rho^T,s2]];
    all eigenvalues are 1 except the pair from the 2x2 pencil on
    (rho direction, error), so no dense assembly is needed.
    """
    s2 = model.noise_var
    r2 = float(model.whitened_cross @ model.whitened_cross)
    lo = 0.5 * (1.0 + s2 - math.sqrt((1.0 - s2) ** 2 + 4.0 * r2))
    return min(1.0, lo)


def split_sample_lasso_iv(data: Dataset, endo_idx, lambda_rule=plugin_lambda) -> FitResult:
    """The two-stage baseline as the package ran it column by column
    before its first stage was batched: one std per target, an argsort of
    every instrument score per screened column, an hstack per accepted
    fit.  The package must return the same bytes."""
    if data.compressed:  # the instruments are W1 columns in model coordinates
        raise InvalidData("lasso_iv needs a sample in the model's columns, not a compressed one")
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
        f1 = _instrument_features(data, half1)
        if f1.shape[1] == 0:
            raise SingularDesign("model has no instruments")
        endo1 = x[np.ix_(half1, endo_idx)]
        if np.linalg.matrix_rank(endo1) < endo_idx.size:
            raise SingularDesign("endogenous columns are collinear on the first-stage half")
        corr = f1.T @ endo1
        col_norm = np.linalg.norm(f1, axis=0)
        scores = np.abs(corr) / np.where(col_norm > 0, col_norm, 1.0)[:, None]
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
            lam = float(lambda_rule(float(target.std()), half1.size, f1.shape[1]))
            cand = None
            if not _zero_is_optimal(corr[:, j] / half1.size, lam):
                coef = _lasso_theta(f1, target, lam)
                cand = f1 @ coef if np.any(coef) else None
            unit = fresh_direction(cand) if cand is not None else None
            if unit is None:
                # weak or shared instruments: marginal screening
                score = np.where(taken | (col_norm == 0), -1.0, scores[:, j])
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

    v2 = x.take(half2, 0).take(exo_idx, 1)
    lam = float(lambda_rule(float(y2.std()), half2.size, exo_idx.size))
    theta[exo_idx] = _lasso_theta(v2, y2, lam, checked=True)
    return _result(x, y, theta)


@dataclass(frozen=True)
class NormRankEstimate:
    r_norm: float
    R_norm: float
    stderr_r: float
    stderr_R: float
    mc_samples: int
    projection_checked: bool


def _delta_method(num, den, num_scale_sq):
    """Plug-in ranks and stderrs for (mean(num)/s)^2 and (mean(num)/mean(den))^2."""
    m = num.size
    a, d = float(num.mean()), float(den.mean())
    va = float(num.var(ddof=1)) / m
    vd = float(den.var(ddof=1)) / m
    cad = float((num - a) @ (den - d)) / ((m - 1) * m)
    r = a * a / num_scale_sq
    se_r = 2.0 * a / num_scale_sq * math.sqrt(va)
    big_r = (a / d) ** 2
    ga, gd = 2.0 * a / d**2, -2.0 * a**2 / d**3
    var_R = ga * ga * va + gd * gd * vd + 2.0 * ga * gd * cad
    return r, big_r, se_r, math.sqrt(max(var_R, 0.0))


def norm_effective_ranks(
    sigma_diag,
    norm: str = "l2",
    mc_samples: int = 10_000,
    seed: int = 0,
) -> NormRankEstimate:
    """Monte Carlo general-norm effective ranks of a diagonal covariance.

    Draws H ~ N(0, I), evaluates the dual norm of Sigma^{1/2}H and the
    Sigma-weighted length of the minimal dual subgradient, and returns
    delta-method standard errors for both rank estimates.  sigma_diag is
    the diagonal of Sigma; a 2-d input or fewer than 2 samples (no
    standard error) raises ValueError, and a negative or non-finite entry
    NotPSD.
    """
    if mc_samples < 2:
        raise ValueError(f"standard errors need mc_samples >= 2, got {mc_samples}")
    sigma = np.asarray(sigma_diag, dtype=float)
    if sigma.ndim != 1:
        raise ValueError("norm effective ranks take the covariance's diagonal as a vector")
    top = float(_eigs_of(sigma).max(initial=0.0))
    if top <= 0:
        raise ZeroMatrix("norm effective ranks need a nonzero matrix")
    root = np.sqrt(sigma)
    sup = math.sqrt(top)

    rng = np.random.default_rng(seed)
    y = rng.standard_normal((mc_samples, sigma.size)) * root[None, :]  # rows are Sigma^{1/2} H

    if norm == "l2":
        num = np.linalg.norm(y, axis=1)
        # v* = y/|y|; its Sigma-length is |Sigma^{1/2} y| / |y|
        den = np.linalg.norm(y * root[None, :], axis=1) / np.where(num > 0, num, 1.0)
        checked = True
    elif norm == "l1":
        num = np.abs(y).max(axis=1)
        picks = np.abs(y).argmax(axis=1)  # argmax takes the lowest index on ties
        den = root[picks]
        checked = False
    else:
        raise ValueError(f"unknown norm {norm!r}")

    r, big_r, se_r, se_R = _delta_method(num, den, sup * sup)
    return NormRankEstimate(
        r_norm=r,
        R_norm=big_r,
        stderr_r=se_r,
        stderr_R=se_R,
        mc_samples=mc_samples,
        projection_checked=checked,
    )
