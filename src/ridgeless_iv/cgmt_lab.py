"""Desk-scale check that the interpolator's worst-case projected error is
tail-dominated by its Gaussian comparison problem.

The primary problem maximizes the signal-weighted squared error over all
ball-constrained interpolants of one data draw; the comparison problem
replaces the instrument factor by two independent Gaussian vectors and keeps
everything else.  The primary side is solved exactly: one SVD of the design
gives the affine slice of the ball, and the trust-region step on its sphere
is the batched kernel _sphere_min (More & Sorensen 1983) that the comparison
side shares.  The comparison side is solved by the CGMT scalarization
(Thrampoulidis, Oymak & Hassibi 2015; Thrampoulidis, Abbasi & Hassibi 2018):
with disjoint signal and latent supports it reduces to the objective's root
nu and one inner product t, each (nu, t) pair splitting the ball budget into
a Tikhonov secular equation and a trust-region problem on a sphere.  A node
scan in nu and a bracketed root of the budget give the optimum, and the
point that attains it is checked against the cone and ball.  Each min over
the t window (_ao_window_min) is a bracketed search for a root of its
slope, which the envelope theorem gives in closed form from the two
kernels' multipliers (_ao_phi), in a fixed number of steps.  The Newton
kernels take their small component axis first, (q, ...), so each sum over
components is one add per contiguous row, not a reduction over a short last
axis.

A draw (TailDraw) holds only its Gaussian factors; every solver takes the
model and the ball radius as arguments.  The comparison draws of one
tail-check chunk are reduced together (_ao_reduce): one SVD of the stacked
latent designs, one eigh of the projected signal blocks and the nu nodes of
every draw, laid out draws last as the climb reads them: vectors (q, B),
scalars (B,), nodes (N, B).  The draws are then scanned together from the
top node down (_ao_scan), each Newton point stopping on its own, and the
draws with a feasible node are refined as one batch.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import EndogenousModel, split_eigs
from .matops import default_rank_tol
from .sampling import draw_factors, factor_design

_FEAS_REL = 1e-10


class NoFeasiblePoint(RuntimeError):
    """The affine system has no solution inside the coefficient ball."""


@dataclass(frozen=True)
class TailDraw:
    """One draw of the tail comparison for a model of dimension p.

    W1 (n x p) carries the instrument factor and W2 (n x k) the latent-noise
    factor on the block's support, as sampling.draw_factors returns them; xi
    is the regression error realized jointly with W2.  G (n) and H (p) are
    the comparison problem's Gaussian vectors.  The model and the ball are
    not part of a draw: the solvers take them as arguments.
    """

    W1: np.ndarray
    W2: np.ndarray
    xi: np.ndarray
    G: np.ndarray
    H: np.ndarray


@dataclass(frozen=True)
class PoSolution:
    value: float
    theta_prime: np.ndarray
    null_dim: int


@dataclass(frozen=True)
class AoSolution:
    """A comparison optimum: its value and the point that attains it, or 0
    and no point with feasible_empty set.  starts_feasible is 1 + the index
    of the draw's top feasible nu node in the scan, 0 when no node is
    feasible."""

    value: float
    point: np.ndarray | None
    feasible_empty: bool
    starts_feasible: int


@dataclass(frozen=True)
class TailReport:
    c_grid: np.ndarray
    p_phi_gt: np.ndarray
    p_phi_ao_ge: np.ndarray
    stderr_po: np.ndarray
    stderr_ao: np.ndarray
    violation: np.ndarray
    reps: int
    phi_po: np.ndarray
    phi_ao: np.ndarray
    flags: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(self.violation))

    def rows(self) -> list[dict]:
        return [
            {
                "c": float(c),
                "p_phi_gt": float(self.p_phi_gt[i]),
                "p_phi_ao_ge": float(self.p_phi_ao_ge[i]),
                "stderr_po": float(self.stderr_po[i]),
                "stderr_ao": float(self.stderr_ao[i]),
                "violation": bool(self.violation[i]),
            }
            for i, c in enumerate(self.c_grid)
        ]


# ------------------------------------------------------------ sphere kernel


_MAX_STEPS = 60


def _row_norm(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm dispatch overhead dominates at these sizes
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _comp_norm(x: np.ndarray) -> np.ndarray:
    # norm over the leading component axis: one add per component row
    return np.sqrt((x * x).sum(axis=0))


def _sphere_min(m, gam, rho):
    """(w, lam): w minimizing sum(m w^2 + 2 gam w) on |w| = rho, m ascending,
    and its multiplier lam, w = -gam / (m + lam).

    Components come first: m and gam are (q, ...) and broadcast against rho.
    Newton on 1/|w(lam)| from a lower bound of the multiplier, each point
    stopping at its first step within 1e-13 of |lam|, then |w| is pinned to
    rho.  In the hard case |w| stays short of rho even at the pole
    lam = -m[0], and the rest of the radius goes along the first eigenvector.
    The minimum falls by 2 lam rho per unit of radius; lam means nothing
    where rho = 0.
    """
    live_rho = rho > 0.0
    rs = np.where(live_rho, rho, 1.0)
    lam = np.maximum(_comp_norm(gam) / rs - m[-1], np.abs(gam[0]) / rs - m[0])

    def at(lam):
        den = m + lam
        den = np.where(den > 0.0, den, np.inf)
        w = -gam / den
        return w, den, _comp_norm(w)

    run = live_rho
    for _ in range(_MAX_STEPS):
        w, den, nw = at(lam)
        # a stopped point is not live, so its step is 0
        live = run & (nw > rho)
        slope = np.where(live, (w * w / den).sum(axis=0), 1.0)
        step = np.where(live, (1.0 / rs - 1.0 / np.where(live, nw, 1.0)) * nw**3 / slope, 0.0)
        lam = lam + step
        run = live & (step > 1e-13 * np.abs(lam))
        if not run.any():
            break
    w, _, nw = at(lam)
    hard = nw < rho * (1.0 - 1e-12)
    if hard.any():
        lam = np.where(hard, -m[0], lam)
        w, _, nw = at(lam)
        pad = np.sqrt(np.maximum(rho * rho - nw * nw, 0.0))
        w[0] += np.where(hard, np.copysign(pad, -gam[0]), 0.0)
    w *= np.where(hard, 1.0, rs / np.where(nw > 0.0, nw, 1.0))
    return np.where(live_rho, w, 0.0), lam


# ------------------------------------------------------------------ primary


def max_projected_error(
    design: np.ndarray,
    xi: np.ndarray,
    ball_radius: float,
    theta0: np.ndarray,
    signal_eigs: np.ndarray,
) -> PoSolution:
    """Global maximum of (theta - theta0)' diag(signal_eigs) (theta - theta0)
    over the interpolants {theta : design (theta - theta0) = xi, |theta| <= radius}.

    Exact solve from one SVD of the design, which gives its rank, the
    min-norm particular solution and an orthonormal null-space basis.  On
    the null-space sphere the maximization of s'As + 2b's is the minimization
    in _sphere_min with the spectrum of A and the linear term negated.  A
    non-finite design or xi, or a mis-shaped xi, theta0 or signal_eigs,
    raises ValueError; an empty feasible set raises NoFeasiblePoint.
    """
    design = np.asarray(design, dtype=float)
    xi = np.asarray(xi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    sig = np.asarray(signal_eigs, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be an n x p matrix")
    n, p = design.shape
    if xi.shape != (n,) or theta0.shape != (p,) or sig.shape != (p,):
        raise ValueError("xi must be an n-vector, theta0 and signal_eigs p-vectors")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(xi))):
        raise ValueError("design and xi must be finite")

    left, sv, vt = np.linalg.svd(design)
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


def solve_po(model: EndogenousModel, draw: TailDraw, radius: float) -> PoSolution:
    """Exact optimum of the primary problem for one draw of the model: the
    feasible set is {theta' : X theta' = xi, |theta' + theta0| <= radius}
    for the draw's design X (sampling.factor_design)."""
    design = factor_design(draw.W1, draw.W2, model.signal_eigs, model.endo_eigs)
    return max_projected_error(design, draw.xi, radius, model.true_coef, model.signal_eigs)


# --------------------------------------------------------------- comparison


# With disjoint supports the comparison problem reduces to two scalars.  On
# the latent coordinates K put A = W2[:, K] endo_K^{1/2}, y = theta'_K +
# theta0_K and c = xi + A theta0_K - nu G; on the signal coordinates J put
# u = signal_J^{1/2} theta'_J, D = signal_J^{-1/2} and b = theta0_J, so that
# the objective is nu^2 = |u|^2.  Other coordinates take theta' = -theta0.
# For fixed nu and t = <u, H_J> the ball budget splits into
#   L(nu, t) = min |y|^2         s.t. |c - A y| <= t
#   S(nu, t) = min |D u + b|^2   s.t. |u| = nu, <u, H_J> = t,
# and nu is feasible iff min L + S <= R^2 over t in [|P_perp c|, nu |H_J|].
# L is a Tikhonov secular equation in the SVD of A; S is a trust-region
# problem on the sphere orthogonal to H_J, in the eigenbasis of D^2 there.
# Positions g in [0, 1] address the t window (see _ao_phi).

_NU_NODES = 24  # linear nu nodes, and again as many logarithmic ones
_T_GRID = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, 16))
_SLOPE_STEPS = 8


def _cone_gap(x, sig_root, w2s, G, hz, xi):
    """Cone constraint slack for rows of x; <= 0 means feasible.

    Shapes broadcast over any leading batch axes: x is (..., S, p) against
    per-batch w2s (..., n, k), the scaled latent factor on the block's
    first k columns, G/xi (..., n), hz (..., p); sig_root is the p-vector
    square root of the signal diagonal.
    """
    nu = _row_norm(x * sig_root)
    resid = (
        xi[..., None, :]
        - np.einsum("...sk,...nk->...sn", x[..., : w2s.shape[-1]], w2s)
        - nu[..., None] * G[..., None, :]
    )
    return _row_norm(resid) - np.einsum("...sp,...p->...s", x, hz)


def _signal_energy(x, sig):
    return np.einsum("...p,p,...p->...", x, sig, x)


def _in_ball(x, theta0, radius):
    return _row_norm(x + theta0) <= radius * (1.0 + 1e-12)


def _tikhonov(alpha, sv2, tau2):
    """mu >= 0 with |mu alpha / (sv2 + mu)|^2 = tau2, components of alpha and
    sv2 first: Newton on 1/|r| in kappa = 1/mu, which is concave, so the
    iterates approach from below, starting from the largest one-component
    lower bound on kappa; each point stops at its first step within 1e-13
    of its kappa, so its bytes do not depend on the other points of the
    call.  tau2 <= 0 gives mu = 0 (least squares), tau2 >= |alpha|^2 gives
    inf."""
    a2 = alpha * alpha
    act = (tau2 > 0.0) & (tau2 < a2.sum(axis=0))
    target = 1.0 / np.sqrt(np.where(act, tau2, 1.0))
    bound = (np.abs(alpha) * target - 1.0) / np.where(sv2 > 0.0, sv2, np.inf)
    kap = np.where(act, bound.max(axis=0, initial=0.0), 0.0)
    run = act
    for _ in range(_MAX_STEPS):
        den = 1.0 + kap * sv2
        r2 = a2 / (den * den)
        nr = np.sqrt(np.where(act, r2.sum(axis=0), 1.0))
        slope = np.where(act, (r2 * sv2 / den).sum(axis=0), 1.0)
        # an inactive point has target = nr = slope = 1, so its step is 0
        step = (target - 1.0 / nr) * nr**3 / slope
        np.add(kap, step, out=kap, where=run)
        run = run & (step > 1e-13 * kap)
        if not run.any():
            break
    return np.where(act, 1.0 / np.where(act, kap, 1.0), np.where(tau2 > 0.0, np.inf, 0.0))


# the per-draw arrays that _ao_phi reads
_PHI_KEYS = ("ua", "ug", "sv", "pc", "pg", "hn", "m", "g1", "g0", "e2", "e1", "bb", "flat", "slack")


def _ao_at_nu(r, nu):
    """The arrays of r laid out against nu, of shape (B, ...), with the terms
    of L + S that depend on nu alone (or on the draw alone), for _ao_phi.

    r holds B reduced draws, components first: vectors (q, B) and scalars
    (B,).  Each gets a trailing singleton axis per trailing axis of nu.
    """
    pad = (1,) * (nu.ndim - 1)
    at = {k: v.reshape(v.shape + pad) for k, v in r.items()}
    t_hi = nu * at["hn"]
    # |P_perp c| sums its n rows on a contiguous last axis, in _row_norm's
    # order; it is taken once per nu, so the copy costs little
    rows = np.ascontiguousarray(np.moveaxis(at["pc"] - nu * at["pg"], 0, -1))
    t_lo = np.maximum(_row_norm(rows) - at["slack"], 0.0)
    pos = at["hn"] > 0.0
    at.update(
        nu=nu, t_lo=t_lo, open=t_lo <= t_hi, pos=pos, hn_div=np.where(pos, at["hn"], 1.0),
        width=np.sqrt(np.maximum(t_hi * t_hi - t_lo * t_lo, 0.0)),
        alpha=at["ua"] - nu * at["ug"], sv2=at["sv"] ** 2,
    )
    return at


def _ao_phi(at, g, point=False, slope=False):
    """L + S at window positions g over the nu terms at (from _ao_at_nu), inf
    where the t window is closed; with slope=True also its derivative in g,
    and with point=True y and u instead, components first, which needs vt,
    evec and hhat in at.

    The window is [t_lo, nu |H_J|], t_lo = |P_perp c| less the draw's
    slack, the part of the certificate's cone tolerance the point may use.
    g in [0, 1] sets tau = |P_range(c - A y)| = W sin(pi g / 2) and the
    radius of u off H_J to rho = (W / |H_J|) cos(pi g / 2), W^2 = nu^2
    |H_J|^2 - t_lo^2, which removes the square-root ends of the window;
    s = t / |H_J| is the length of u along H_J.

    The slope follows from the envelope theorem and the multipliers of the
    two kernels, mu of _tikhonov and lam of _sphere_min:
      dphi/dg = -2 |alpha / (sv^2 + mu)| dtau/dg
                + (2 w.g1 + 2 s e2 + 2 e1) ds/dg - 2 lam rho drho/dg,
    with dtau/dg = W (pi/2) cos(pi g / 2), drho/dg = -W (pi/2) sin(pi g /
    2) / |H_J| and ds/dg = (tau / t) dtau/dg / |H_J|.  |alpha / (sv^2 +
    mu)| is tau / mu, which stays finite as tau -> 0 at g = 0, and tau / t
    is taken as 1 where t_lo = tau = 0; at g = 1, cos(pi g / 2) is about
    6e-17, not 0, and lam rho comes out near its limit |gam|.  So the slope
    is the one-sided derivative at both ends.  It is 0 where the window is
    closed, where H_J = 0 and on flat draws (one signal coordinate), where
    phi does not depend on g.
    """
    nu, t_lo, pos = at["nu"], at["t_lo"], at["pos"]
    angle = 0.5 * math.pi * g
    rho = np.where(at["flat"], 0.0, np.where(pos, at["width"] * np.cos(angle) / at["hn_div"], nu))
    s = np.where(pos, np.sqrt(np.maximum(nu * nu - rho * rho, 0.0)), 0.0)
    t = s * at["hn"]

    alpha, sv2 = at["alpha"], at["sv2"]
    den = sv2 + _tikhonov(alpha, sv2, t * t - t_lo * t_lo)
    den = np.where(den > 0.0, den, 1.0)
    coef = at["sv"] * alpha / den

    m = at["m"]
    gam = s * at["g1"] + at["g0"]
    w, lam = _sphere_min(m, gam, rho)
    sph = (w * (m * w + 2.0 * gam)).sum(axis=0)
    sph += s * (s * at["e2"] + 2.0 * at["e1"]) + at["bb"]
    phi = np.where(at["open"], (coef * coef).sum(axis=0) + sph, np.inf)
    if slope:
        moves = at["open"] & pos & ~at["flat"]
        d_tau = np.where(moves, 0.5 * math.pi * at["width"] * np.cos(angle), 0.0)
        d_rho = np.where(moves, -0.5 * math.pi * at["width"] * np.sin(angle) / at["hn_div"], 0.0)
        # tau / t from tau and t_lo, which stay exact as t_lo and g go to 0
        tau = at["width"] * np.sin(angle)
        t_ex = np.hypot(t_lo, tau)
        ratio = np.where(t_ex > 0.0, tau / np.where(t_ex > 0.0, t_ex, 1.0), 1.0)
        d_s = ratio * d_tau / at["hn_div"]
        d_phi = (
            -2.0 * _comp_norm(alpha / den) * d_tau
            + 2.0 * ((w * at["g1"]).sum(axis=0) + s * at["e2"] + at["e1"]) * d_s
            - 2.0 * lam * rho * d_rho
        )
        return phi, d_phi
    if not point:
        return phi
    y = np.einsum("q...,qk...->k...", coef, at["vt"])
    u = np.einsum("ij...,j...->i...", at["evec"], w) + s * at["hhat"]
    return phi, y, u


def _ao_window_min(r, nu):
    """min over the t window of L + S at one nu per draw, and the position
    that attains it: the grid with its slopes (_ao_phi), then a bracketed
    search for a root of the slope below the grid's best value.

    The bracket runs from lo, the lowest point seen, to hi, the grid
    neighbour on lo's downhill side, so it holds a local minimum no higher
    than lo.  Each step tries the minimizer of the cubic through the values
    and slopes of the last two points searched (Nocedal & Wright 2006, eq.
    3.59), or bisects when that falls outside the bracket or the bracket
    has not halved over the last two steps.  A point above lo becomes hi;
    otherwise it becomes lo, and the old lo becomes hi if the slope there
    points back at it.  The slope may jump down where the sphere's
    minimizer switches branches, so the values, not the slope signs alone,
    cut the bracket.  Every call takes _SLOPE_STEPS steps, whatever its
    draws.
    """
    at = _ao_at_nu(r, nu[:, None])
    rows, last = np.arange(nu.size), _T_GRID.size - 1
    phi, d_phi = _ao_phi(at, _T_GRID[None], slope=True)
    j = phi.argmin(axis=1)
    # the grid's ends search inward even when their slope points outward
    k = np.where((j == 0) | ((d_phi[rows, j] < 0.0) & (j < last)), j + 1, j - 1)
    lo, f_lo, hi = _T_GRID[j], phi[rows, j], _T_GRID[k]
    xp, fp, dp = hi, phi[rows, k], d_phi[rows, k]
    xq, fq, dq = lo, f_lo, d_phi[rows, j]
    older = old = np.inf  # the bracket's widths two steps and one step back
    for _ in range(_SLOPE_STEPS):
        span = np.abs(hi - lo)
        # a closed window (phi = inf) or a repeated point gives NaN here
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = dp + dq - 3.0 * (fp - fq) / (xp - xq)
            d2 = np.copysign(np.sqrt(d1 * d1 - dp * dq), xq - xp)
            x = xq - (xq - xp) * (dq + d2 - d1) / (dq - dp + 2.0 * d2)
        inside = ((x - lo) * (x - hi) < 0.0) & (span <= 0.5 * older)
        x = np.where(inside, x, 0.5 * (lo + hi))
        f, d = _ao_phi(at, x[:, None], slope=True)
        xp, fp, dp, xq, fq, dq = xq, fq, dq, x, f[:, 0], d[:, 0]
        above = fq > f_lo
        hi = np.where(above, x, np.where(dq * (lo - x) < 0.0, lo, hi))
        lo, f_lo = np.where(above, lo, x), np.where(above, f_lo, fq)
        older, old = old, span
    return f_lo, lo


@dataclass(frozen=True)
class _AoBatch:
    """B draws of one model and one ball reduced to the (nu, t) problem.

    red holds the arrays _ao_phi reads, the point's bases and the scanned
    nu nodes, draws last: vectors (q, B), scalars (B,), nodes (N, B), vt
    (r, k, B) and evec (s, s, B).  cert holds the certificate's arrays,
    draws first: cone data and its tolerance.  scan is the node scan of
    every draw (_ao_scan), run once, when it is first read.
    """

    red: dict
    cert: dict
    model: EndogenousModel
    radius: float

    @functools.cached_property
    def scan(self):
        return _ao_scan(self)


@dataclass(frozen=True)
class _AoPrepared:
    """One draw's node scan: the top feasible node (index, best window
    position and L + S there) and starts_feasible, 1 + the top's index, or
    0 when no node is feasible (then the top is node 0)."""

    top: int
    top_g: float
    top_phi: float
    starts_feasible: int


def _ao_reduce(model: EndogenousModel, draws, radius: float) -> _AoBatch:
    """Reduce draws of the model in the ball of the given radius in one pass.

    One SVD of the stacked latent designs A = W2[:, K] endo_K^{1/2}, one
    eigh of the projected signal blocks; the nu nodes are 0, linear and
    logarithmic nodes up to sqrt(max signal) (R + |b|), and the roots of
    |P_perp c| = nu |H_J| + slack, where the window opens or closes, moved
    a hair inside it.  Draws of different shapes (the stacking refuses
    them), or a nonorthogonal model (overlapping supports), raise
    ValueError.
    """
    if model.split_kind == "nonorthogonal":
        raise ValueError("the comparison solver needs disjoint signal and latent supports")
    sig, theta0, radius = model.signal_eigs, model.true_coef, float(radius)
    sig_root, endo_root = np.sqrt(sig), np.sqrt(model.endo_eigs)
    sig_j, lat = sig > 0.0, endo_root > 0.0
    w2 = np.stack([d.W2 for d in draws])
    xi = np.stack([d.xi for d in draws])
    big_g = np.stack([d.G for d in draws])
    big_h = np.stack([d.H for d in draws])
    feas_tol = 1e-9 * (1.0 + _row_norm(xi))

    k = w2.shape[2]
    a_mat = w2[:, :, lat[:k]] * endo_root[lat]
    left, sv, vt = np.linalg.svd(a_mat, full_matrices=False)
    cut = default_rank_tol(max(a_mat.shape[1:])) * sv.max(axis=1, initial=0.0, keepdims=True)
    keep = sv > cut
    left, sv, vt = left * keep[:, None], sv * keep, vt * keep[..., None]
    c0 = xi + a_mat @ theta0[lat]
    ua, ug = np.einsum("bnq,bn->qb", left, c0), np.einsum("bnq,bn->qb", left, big_g)
    pc = c0.T - np.einsum("bnq,qb->nb", left, ua)
    pg = big_g.T - np.einsum("bnq,qb->nb", left, ug)

    h, dinv, b = big_h[:, sig_j], 1.0 / sig_root[sig_j], theta0[sig_j]
    count, s = h.shape
    hn = _row_norm(h)
    pos = hn > 0.0
    hhat = h / np.where(pos, hn, 1.0)[:, None]
    proj = np.eye(s) - hhat[:, :, None] * hhat[:, None, :]
    m, evec = np.linalg.eigh(proj @ (dinv[:, None] ** 2 * proj))
    # with H_J != 0 the first eigenvector is hhat itself: move it last and
    # zero it, and repeat the last eigenvalue there (1 when it is alone)
    m_pos = np.concatenate((m[:, 1:], m[:, -1:] if s > 1 else np.ones((count, 1))), axis=1)
    e_pos = np.concatenate((evec[..., 1:], np.zeros((count, s, 1))), axis=2)
    m = np.where(pos[:, None], m_pos, m)
    evec = np.where(pos[:, None, None], e_pos, evec)
    dh = dinv * hhat
    # the certificate's cone tolerance less room for rounding; with H_J = 0
    # the cone is the linear system P_perp c = 0 and gets none
    slack = np.where(pos, 0.99 * feas_tol, 0.0)

    nu_max = float(sig_root.max()) * (radius + float(np.linalg.norm(b)))
    edge = 0.999 * slack
    p0 = (pc * pc).sum(axis=0) - edge * edge
    p1 = (pc * pg).sum(axis=0) + hn * edge
    p2 = (pg * pg).sum(axis=0) - hn * hn
    with np.errstate(divide="ignore", invalid="ignore"):
        z = p1 + np.copysign(np.sqrt(p1 * p1 - p0 * p2), p1)
        roots = np.stack((z / p2, p0 / z), axis=1)
    # no real root, or one outside [0, nu_max] (NaN fails both tests)
    roots = np.where((roots >= 0.0) & (roots <= nu_max), roots, nu_max)
    ramp = np.arange(1, _NU_NODES + 1) / _NU_NODES
    fixed = np.concatenate(([0.0], nu_max * ramp, nu_max * 1e-6 ** (1.0 - ramp)))
    nodes = np.sort(np.concatenate((np.broadcast_to(fixed, (count, fixed.size)), roots), axis=1))

    red = dict(
        ua=ua, ug=ug, sv=sv.T, vt=vt.transpose(1, 2, 0), pc=pc, pg=pg,
        hn=hn, hhat=hhat.T, m=m.T, evec=evec.transpose(1, 2, 0),
        g1=np.einsum("bij,bi->jb", evec, dinv * dh), g0=np.einsum("bij,i->jb", evec, dinv * b),
        e2=(dh * dh).sum(axis=1), e1=dh @ b, bb=np.full(count, float(b @ b)),
        flat=pos & (s == 1), slack=slack, nodes=nodes.T,
    )
    red = {k: np.ascontiguousarray(v) for k, v in red.items()}
    cert = dict(w2s=w2 * endo_root[:k], hz=sig_root * big_h, G=big_g, xi=xi, feas_tol=feas_tol)
    return _AoBatch(red, cert, model, radius)


_SCAN_NODES = 8  # nu nodes per round of the scan
_SCAN_POINTS = 8192  # components x nodes x positions x draws per _ao_phi call


def _ao_scan(batch: _AoBatch):
    """The top feasible node of every draw of a batch: arrays (top, top_g,
    top_phi, starts_feasible) over the draws, as _AoPrepared holds them.

    A node is feasible when L + S <= R^2 at one of the window positions
    _T_GRID.  The scan runs from the top node down, _SCAN_NODES nodes a
    round, over the draws with no feasible node yet, laid out draws and
    nodes (P, _SCAN_NODES, 1) against positions (1, 1, K) in blocks of
    about _SCAN_POINTS points.  Most draws are settled in the first round;
    a draw with no feasible node goes through every node and takes node 0
    as its top.  Every point keeps its own sums over components and its own
    Newton stops, so L + S comes out with the bytes of a scan of all nodes.
    """
    red, r2 = batch.red, batch.radius * batch.radius
    nodes = red["nodes"]
    size, count = nodes.shape
    top, best = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    top_phi, found = np.zeros(count), np.zeros(count, dtype=bool)
    comps = max(red["ua"].shape[0], red["m"].shape[0])
    pending = np.arange(count)
    for hi in range(size, 0, -_SCAN_NODES):
        lo = max(hi - _SCAN_NODES, 0)
        per = max(_SCAN_POINTS // (comps * (hi - lo) * _T_GRID.size), 1)
        for start in range(0, pending.size, per):
            idx = pending[start : start + per]
            # take, not [..., idx], keeps the block's draws contiguous, so a
            # sum over components adds its rows in order, as a scan of all
            # nodes does
            block = {k: np.take(red[k], idx, axis=-1) for k in _PHI_KEYS}
            at = _ao_at_nu(block, np.take(nodes[lo:hi], idx, axis=1).T[..., None])
            phi = _ao_phi(at, _T_GRID[None, None])
            ok = phi.min(axis=2) <= r2
            hit = ok.any(axis=1)
            # the last feasible node of the round, else node lo
            at_node = np.where(hit, hi - lo - 1 - ok[:, ::-1].argmax(axis=1), 0)
            rows = phi[np.arange(idx.size), at_node]
            settle = hit | (lo == 0)
            pos = rows[settle].argmin(axis=1)
            done = idx[settle]
            top[done], best[done] = lo + at_node[settle], pos
            top_phi[done], found[done] = rows[settle, pos], hit[settle]
        pending = pending[~found[pending]]
    return top, _T_GRID[best], top_phi, np.where(found, top + 1, 0)


def _ao_prepare(batch: _AoBatch, j: int) -> _AoPrepared:
    """Draw j's row of the batch's node scan; the first call runs the scan
    of every draw (_ao_scan), later calls read their own row."""
    top, top_g, top_phi, starts = batch.scan
    return _AoPrepared(int(top[j]), float(top_g[j]), float(top_phi[j]), int(starts[j]))


def _ao_climb(batch: _AoBatch, live):
    """Refine the scanned top nodes of the live draws of a batch at once and
    certify.

    F(nu) = min_t (L + S) - R^2 is first checked exactly at the nodes above
    the scanned top, since the grid may miss a narrow window.  Between the
    last feasible node and the next one, regula falsi with the Illinois rule
    finds the root of F, bisecting while the upper end has no finite value;
    lo stays feasible throughout.  The point rebuilt at lo counts only if it
    passes the cone (gap <= feas_tol) and the ball; returns (ok, values,
    points) for the live draws in order.
    """
    r = {k: v[..., live] for k, v in batch.red.items()}
    nodes = r["nodes"]
    top, g_lo, top_phi, _ = (v[live] for v in batch.scan)
    lo = nodes[top, np.arange(top.size)]
    hi = lo.copy()
    r2 = batch.radius * batch.radius
    f_lo = top_phi - r2
    f_hi = np.full(lo.size, np.inf)

    def window(idx, x):
        phi, g = _ao_window_min({k: r[k][..., idx] for k in _PHI_KEYS}, x)
        return phi - r2, g

    walk = top + 1 < nodes.shape[0]
    while walk.any():
        idx = np.flatnonzero(walk)
        top[idx] += 1
        x = nodes[top[idx], idx]
        fx, g = window(idx, x)
        feas = fx <= 0.0
        lo[idx], g_lo[idx] = np.where(feas, x, lo[idx]), np.where(feas, g, g_lo[idx])
        f_lo[idx] = np.where(feas, fx, f_lo[idx])
        hi[idx], f_hi[idx] = x, np.where(feas, np.inf, fx)
        walk[idx] = feas & (top[idx] + 1 < nodes.shape[0])

    side = np.zeros(lo.size)
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero((hi - lo > 1e-14 * hi) & (f_lo < 0.0))
        if idx.size == 0:
            break
        a, b, fa, fb = lo[idx], hi[idx], f_lo[idx], f_hi[idx]
        fin = np.isfinite(fb)
        x = np.where(fin, a - fa * (b - a) / np.where(fin, fb - fa, 1.0), 0.5 * (a + b))
        x = np.clip(x, a + 1e-6 * (b - a), b - 1e-6 * (b - a))
        fx, g = window(idx, x)
        feas = fx <= 0.0
        # the window's edges are nodes, so a window closed inside the
        # bracket stays closed up to hi and lo is the answer
        closed = np.isinf(fx)
        f_hi[idx] = np.where(feas, np.where(side[idx] > 0, 0.5 * fb, fb), fx)
        f_lo[idx] = np.where(feas, fx, np.where(side[idx] < 0, 0.5 * fa, fa))
        lo[idx] = np.where(feas, x, a)
        hi[idx] = np.where(feas, b, np.where(closed, a, x))
        g_lo[idx] = np.where(feas, g, g_lo[idx])
        side[idx] = np.where(feas, 1.0, -1.0)

    _, y, u = _ao_phi(_ao_at_nu(r, lo[:, None]), g_lo[:, None], point=True)
    cert = {k: v[live] for k, v in batch.cert.items()}
    sig, theta0 = batch.model.signal_eigs, batch.model.true_coef
    sig_root, sig_j = np.sqrt(sig), sig > 0.0
    points = np.tile(-theta0, (lo.size, 1))
    points[:, batch.model.endo_eigs > 0.0] += y[..., 0].T
    points[:, sig_j] = u[..., 0].T / sig_root[sig_j]
    gap = _cone_gap(points[:, None], sig_root, cert["w2s"], cert["G"], cert["hz"], cert["xi"])[:, 0]
    ok = (gap <= cert["feas_tol"]) & _in_ball(points, theta0, batch.radius)
    return ok, _signal_energy(points, sig), points


def _solve_ao_draws(model: EndogenousModel, draws, radius: float) -> list[AoSolution]:
    """Comparison optima of draws of the model in the ball of one radius.

    The draws are reduced together and scanned together, from the top node
    down: the scan runs inside the first _ao_prepare, which is called once
    per draw.  The ones with a feasible node are refined as one batch, and
    the rest report 0 with the feasible_empty flag, as does a draw whose
    refined point fails the certificate.
    """
    batch = _ao_reduce(model, draws, radius)
    preps = [_ao_prepare(batch, j) for j in range(len(draws))]
    sols = [AoSolution(0.0, None, True, prep.starts_feasible) for prep in preps]
    live = np.flatnonzero([prep.starts_feasible for prep in preps])
    if live.size:
        ok, vals, points = _ao_climb(batch, live)
        for j, good, val, point in zip(live, ok, vals, points):
            if good:
                sols[j] = AoSolution(float(val), point, False, preps[j].starts_feasible)
    return sols


def solve_ao(model: EndogenousModel, draw: TailDraw, radius: float) -> AoSolution:
    """Optimum of the comparison problem for disjoint signal and latent supports.

    With S = diag(signal_eigs), U = diag(endo_eigs) and theta0 the model's
    coefficients, maximizes |S^{1/2} theta'|^2 subject to the
    Gaussian-comparison cone
    |xi - W2 U_K^{1/2} theta'_K - G |S^{1/2} theta'|| <= <S^{1/2} theta', H>
    on the draw's k latent columns K and the ball |theta' + theta0| <=
    radius, by the scalar reduction above: a node scan in nu, then a
    bracketed root of the ball budget.  The value is attained by the
    returned point, which passes the cone and ball checks.  An empty
    feasible set reports 0 with the feasible_empty flag.  A G or H of the
    wrong length, or overlapping supports, raise ValueError.
    """
    if np.shape(draw.G) != (draw.W1.shape[0],) or np.shape(draw.H) != (model.p,):
        raise ValueError("G must be an n-vector and H a p-vector")
    (sol,) = _solve_ao_draws(model, [draw], radius)
    return sol


# ------------------------------------------------------------ tail check


def slice_model(p: int = 4) -> EndogenousModel:
    """Tiny identity-basis model with the experiment-grade spectrum shape.

    The top p // 2 eigenvalues go to the latent-noise block, the rest to the
    signal block; whitened endogeneity 2/i on the latent support and
    coefficients 20/sqrt(i) throughout.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    idx = np.arange(1, p + 1, dtype=float)
    eigs = 300.0 / idx / (np.log(idx + 1.0) * math.e / 2.0) ** 2
    endo, sig = split_eigs(eigs, p // 2)
    return EndogenousModel.build(sig, endo, 20.0 / np.sqrt(idx), 2.0 / idx)


def draw_instance(model: EndogenousModel, n: int, rng) -> TailDraw:
    """One joint draw for the tail comparison.

    The factors come from sampling.draw_factors (W1 n x p, W2 n x k on the
    latent support, g), then G and H are drawn, so the primary-side
    variables match sample_dataset's direct route on the same stream (a
    model with a flat signal tail of n + 1 or more columns is sampled
    compressed there, see sample_dataset).
    """
    w1, w2, xi = draw_factors(model, n, rng)
    return TailDraw(w1, w2, xi, rng.standard_normal(n), rng.standard_normal(model.p))


_TAIL_CHUNK = 256


def _tail_chunk(args):
    """Solve one block of repetitions: primary exactly, comparison batched.

    The draws of one block share their shapes by construction, so the
    comparison side reduces, scans and refines the whole block in batched
    calls; only the primary solve runs once per draw.
    """
    model, n, seed, rep_ids, radius = args
    draws = [draw_instance(model, n, np.random.default_rng([seed, r])) for r in rep_ids]
    sols = _solve_ao_draws(model, draws, radius)
    po_vals = np.full(len(draws), -math.inf)
    for j, draw in enumerate(draws):
        with contextlib.suppress(NoFeasiblePoint):
            po_vals[j] = solve_po(model, draw, radius).value
    ao_vals = np.array([sol.value for sol in sols])
    return po_vals, ao_vals, int(np.isinf(po_vals).sum()), sum(s.feasible_empty for s in sols)


def tail_dominance_check(
    model: EndogenousModel,
    n: int,
    reps: int,
    seed: int = 0,
    grid_size: int = 20,
    max_workers: int | None = None,
) -> TailReport:
    """Empirical tails of the primary and comparison optima on a c grid of
    grid_size quantiles (5% to 99%) of the feasible primary optima.

    A grid point counts as a violation when the primary tail exceeds twice
    the comparison tail by more than three combined standard errors.  Both
    optima are solved exactly; a comparison value counts only when its
    point passes the cone and ball checks, and a draw whose point fails
    them is flagged as empty.  Per-repetition seeding and fixed block
    boundaries keep the result identical whether blocks run serially or
    across worker processes, by default one per CPU this process may run
    on.  The coefficient ball has radius |theta0| + 50 sigma.  A check with
    no rows, no repetition or no threshold raises ValueError before any
    draw is solved.
    """
    if n < 1:
        raise ValueError("need at least one row per instance")
    if reps < 1:
        raise ValueError("need at least one repetition")
    if grid_size < 1:
        raise ValueError("need at least one threshold")
    ball_radius = float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)

    jobs = [
        (model, n, seed, range(lo, min(lo + _TAIL_CHUNK, reps)), ball_radius)
        for lo in range(0, reps, _TAIL_CHUNK)
    ]
    if max_workers is None:
        # the CPUs this process may run on, not every CPU of the host
        affinity = getattr(os, "sched_getaffinity", None)
        max_workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    if max_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_tail_chunk, jobs))
    else:
        results = [_tail_chunk(j) for j in jobs]

    phi_po = np.concatenate([r[0] for r in results])
    phi_ao = np.concatenate([r[1] for r in results])
    po_infeasible = sum(r[2] for r in results)
    ao_empty = sum(r[3] for r in results)

    finite = phi_po[np.isfinite(phi_po)]
    if finite.size == 0:
        raise NoFeasiblePoint("no feasible primary repetition to place the grid")
    c_grid = np.quantile(finite, np.linspace(0.05, 0.99, grid_size))

    p_po = np.array([float(np.mean(phi_po > c)) for c in c_grid])
    p_ao = np.array([float(np.mean(phi_ao >= c)) for c in c_grid])
    se_po = np.sqrt(p_po * (1.0 - p_po) / reps)
    se_ao = np.sqrt(p_ao * (1.0 - p_ao) / reps)
    return TailReport(
        c_grid=c_grid,
        p_phi_gt=p_po,
        p_phi_ao_ge=p_ao,
        stderr_po=se_po,
        stderr_ao=se_ao,
        violation=p_po > 2.0 * p_ao + 3.0 * (se_po + 2.0 * se_ao),
        reps=reps,
        phi_po=phi_po,
        phi_ao=phi_ao,
        flags={"po_infeasible": po_infeasible, "ao_feasible_empty": ao_empty},
    )
