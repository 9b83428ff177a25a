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
point that attains it is checked against the cone and ball.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import CovarianceModel, EndogenousModel, assemble_model
from .matops import default_rank_tol
from .sampling import draw_factors

_FEAS_REL = 1e-10


class NoFeasiblePoint(RuntimeError):
    """The affine system has no solution inside the coefficient ball."""


@dataclass(frozen=True)
class PoInstance:
    """One draw of the primary maximization problem.

    W1 carries the instrument factor, W2 the latent-noise factor; xi is the
    regression error vector realized jointly with W2.  signal_eigs and
    endo_eigs are the diagonals of the signal and latent-noise blocks.  The
    feasible set is {theta' : design() theta' = xi, |theta' + theta0| <=
    ball_radius}.
    """

    W1: np.ndarray
    W2: np.ndarray
    xi: np.ndarray
    ball_radius: float
    theta0: np.ndarray
    signal_eigs: np.ndarray
    endo_eigs: np.ndarray

    def __post_init__(self):
        n, p = np.shape(self.W1)
        if np.shape(self.W2) != (n, p):
            raise ValueError("W1 and W2 must share one n x p shape")
        if np.shape(self.xi) != (n,):
            raise ValueError("xi must be an n-vector")
        if np.shape(self.theta0) != (p,):
            raise ValueError("theta0 must be a p-vector")
        for eigs in (self.signal_eigs, self.endo_eigs):
            if np.shape(eigs) != (p,) or not np.all(np.isfinite(eigs) & (np.asarray(eigs) >= 0)):
                raise ValueError("covariance diagonals must be finite nonnegative p-vectors")
        theta_norm = float(np.linalg.norm(self.theta0))
        if self.ball_radius < theta_norm:
            raise ValueError(
                f"ball radius {self.ball_radius:g} below |theta0| = {theta_norm:g}"
            )

    @property
    def n(self) -> int:
        return self.W1.shape[0]

    @property
    def p(self) -> int:
        return self.W1.shape[1]

    def design(self) -> np.ndarray:
        """The combined factor matrix W1 diag(signal)^{1/2} + W2 diag(endo)^{1/2}."""
        return self.W1 * np.sqrt(self.signal_eigs) + self.W2 * np.sqrt(self.endo_eigs)


@dataclass(frozen=True)
class PoSolution:
    value: float
    theta_prime: np.ndarray
    radius: float
    null_dim: int


@dataclass(frozen=True)
class AoSolution:
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


def _sphere_min(m, gam, rho):
    """w minimizing sum(m w^2 + 2 gam w) on |w| = rho, m ascending.

    Newton on 1/|w(lam)| from a lower bound of the multiplier, then |w| is
    pinned to rho.  In the hard case |w| stays short of rho even at the pole
    lam = -m[0], and the rest of the radius goes along the first eigenvector.
    """
    live_rho = rho > 0.0
    rs = np.where(live_rho, rho, 1.0)
    lam = np.maximum(_row_norm(gam) / rs - m[..., -1], np.abs(gam[..., 0]) / rs - m[..., 0])

    def at(lam):
        den = m + lam[..., None]
        den = np.where(den > 0.0, den, np.inf)
        w = -gam / den
        return w, den, _row_norm(w)

    for _ in range(_MAX_STEPS):
        w, den, nw = at(lam)
        live = live_rho & (nw > rho)
        slope = np.where(live, (w * w / den).sum(axis=-1), 1.0)
        step = np.where(live, (1.0 / rs - 1.0 / np.where(live, nw, 1.0)) * nw**3 / slope, 0.0)
        lam = lam + step
        if np.all(step <= 1e-13 * np.abs(lam)):
            break
    hard = at(lam)[2] < rho * (1.0 - 1e-12)
    w, _, nw = at(np.where(hard, -m[..., 0], lam))
    w *= np.where(hard, 1.0, rs / np.where(nw > 0.0, nw, 1.0))[..., None]
    pad = np.sqrt(np.maximum(rho * rho - nw * nw, 0.0))
    w[..., 0] += np.where(hard, np.copysign(pad, -gam[..., 0]), 0.0)
    return np.where(live_rho[..., None], w, 0.0)


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
        return PoSolution(float(part @ (sig * part)), part, 0.0, 0)

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
    w = _sphere_min(-lam[None, ::-1], -(b @ vec)[None, ::-1], np.array([radius]))
    theta_prime = anchor + basis @ (vec @ w[0, ::-1])
    return PoSolution(float(theta_prime @ (sig * theta_prime)), theta_prime, radius, m)


def solve_po(inst: PoInstance) -> PoSolution:
    """Exact optimum of the primary problem for one instance draw."""
    return max_projected_error(
        inst.design(), inst.xi, inst.ball_radius, inst.theta0, inst.signal_eigs
    )


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
_GOLDEN_STEPS = 24
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _cone_gap(x, sig_root, w2s, G, hz, xi):
    """Cone constraint slack for rows of x; <= 0 means feasible.

    Shapes broadcast over any leading batch axes: x is (..., S, p) against
    per-batch w2s (..., n, p), G/xi (..., n), hz (..., p); sig_root is the
    p-vector square root of the signal diagonal.
    """
    nu = _row_norm(x * sig_root)
    resid = (
        xi[..., None, :]
        - np.einsum("...sp,...np->...sn", x, w2s)
        - nu[..., None] * G[..., None, :]
    )
    return _row_norm(resid) - np.einsum("...sp,...p->...s", x, hz)


def _signal_energy(x, sig):
    return np.einsum("...p,p,...p->...", x, sig, x)


def _in_ball(x, theta0, radius):
    return _row_norm(x + theta0) <= radius * (1.0 + 1e-12)


def _tikhonov(alpha, sv2, tau2):
    """mu >= 0 with |mu alpha / (sv2 + mu)|^2 = tau2: Newton on 1/|r| in
    kappa = 1/mu, which is concave, so the iterates approach from below,
    starting from the largest one-component lower bound on kappa.
    tau2 <= 0 gives mu = 0 (least squares), tau2 >= |alpha|^2 gives inf."""
    a2 = alpha * alpha
    act = (tau2 > 0.0) & (tau2 < a2.sum(axis=-1))
    target = 1.0 / np.sqrt(np.where(act, tau2, 1.0))
    bound = (np.abs(alpha) * target[..., None] - 1.0) / np.where(sv2 > 0.0, sv2, np.inf)
    kap = np.where(act, bound.max(axis=-1, initial=0.0), 0.0)
    for _ in range(_MAX_STEPS):
        den = 1.0 + kap[..., None] * sv2
        r2 = a2 / (den * den)
        nr = np.sqrt(np.where(act, r2.sum(axis=-1), 1.0))
        slope = np.where(act, (r2 * sv2 / den).sum(axis=-1), 1.0)
        step = np.where(act, (target - 1.0 / nr) * nr**3 / slope, 0.0)
        kap += step
        if np.all(step <= 1e-13 * kap):
            break
    return np.where(act, 1.0 / np.where(act, kap, 1.0), np.where(tau2 > 0.0, np.inf, 0.0))


def _ao_phi(r, nu, g, point=False):
    """L + S at nodes (nu, g) of shape (B, M) over the B reduced draws in r,
    inf where the t window is closed; with point=True also y and u.

    The window is [t_lo, nu |H_J|], t_lo = |P_perp c| less r["slack"], the
    part of the certificate's cone tolerance the point may use.  g in [0, 1]
    sets |P_range(c - A y)| = W sin(pi g / 2) and the radius of u off H_J to
    (W / |H_J|) cos(pi g / 2), W^2 = nu^2 |H_J|^2 - t_lo^2, which removes
    the square-root ends of the window.
    """
    col = {k: v[:, None] for k, v in r.items()}
    t_hi = nu * col["hn"]
    t_lo = np.maximum(_row_norm(col["pc"] - nu[..., None] * col["pg"]) - col["slack"], 0.0)
    width = np.sqrt(np.maximum(t_hi * t_hi - t_lo * t_lo, 0.0))
    pos = col["hn"] > 0.0
    hn = np.where(pos, col["hn"], 1.0)
    rho = np.where(col["flat"], 0.0, np.where(pos, width * np.cos(0.5 * math.pi * g) / hn, nu))
    s = np.where(pos, np.sqrt(np.maximum(nu * nu - rho * rho, 0.0)), 0.0)
    t = s * col["hn"]

    alpha = col["ua"] - nu[..., None] * col["ug"]
    sv2 = col["sv"] ** 2
    den = sv2 + _tikhonov(alpha, sv2, t * t - t_lo * t_lo)[..., None]
    coef = col["sv"] * alpha / np.where(den > 0.0, den, 1.0)

    gam = s[..., None] * col["g1"] + col["g0"]
    w = _sphere_min(col["m"], gam, rho)
    sph = np.einsum("...i,...i->...", w, col["m"] * w + 2.0 * gam)
    sph += s * (s * col["e2"] + 2.0 * col["e1"]) + col["bb"]
    phi = np.where(t_lo <= t_hi, (coef * coef).sum(axis=-1) + sph, np.inf)
    if not point:
        return phi
    y = np.einsum("bmq,bqk->bmk", coef, r["vt"])
    u = np.einsum("bij,bmj->bmi", r["evec"], w) + s[..., None] * col["hhat"]
    return phi, y, u


def _ao_window_min(r, nu):
    """min over the t window of L + S at one nu per draw: the grid, then a
    golden-section search between the grid neighbours of its best node."""
    rows, k = np.arange(nu.size), _T_GRID.size
    phi = _ao_phi(r, nu[:, None], np.broadcast_to(_T_GRID, (nu.size, k)))
    j = phi.argmin(axis=1)
    best = [phi[rows, j], _T_GRID[j]]

    def at(g):
        f = _ao_phi(r, nu[:, None], g[:, None])[:, 0]
        better = f < best[0]
        best[:] = np.where(better, f, best[0]), np.where(better, g, best[1])
        return f

    a, b = _T_GRID[np.maximum(j - 1, 0)], _T_GRID[np.minimum(j + 1, k - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = at(c), at(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - _INV_PHI * (b - a), d), np.where(left, c, a + _INV_PHI * (b - a))
        fx = at(np.where(left, c, d))
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return best[0], best[1]


@dataclass(frozen=True)
class _AoPrepared:
    """One draw reduced to the (nu, t) problem: its arrays, with the scanned
    nu nodes and the top feasible one (index, best window position and
    L + S there), and the count of feasible nodes."""

    red: dict
    starts_feasible: int


def _ao_prepare(inst, G, H, sig, sig_root, endo_root) -> _AoPrepared:
    """Reduce one draw and scan it on nu nodes times window positions.

    The nu nodes are 0, linear and logarithmic nodes up to sqrt(max signal)
    (R + |b|), and the roots of |P_perp c| = nu |H_J| + slack, where the
    window opens or closes, moved a hair inside it.
    """
    sig_j, lat = sig > 0.0, endo_root > 0.0
    if np.any(sig_j & lat):
        raise ValueError("the comparison solver needs disjoint signal and latent supports")
    theta0, radius = inst.theta0, float(inst.ball_radius)
    feas_tol = 1e-9 * (1.0 + float(np.linalg.norm(inst.xi)))
    a_mat = inst.W2[:, lat] * endo_root[lat]
    left, sv, vt = np.linalg.svd(a_mat, full_matrices=False)
    keep = sv > default_rank_tol(max(a_mat.shape)) * np.max(sv, initial=0.0)
    left, sv, vt = left * keep, sv * keep, vt * keep[:, None]
    c0 = inst.xi + a_mat @ theta0[lat]
    ua, ug = left.T @ c0, left.T @ G

    h, dinv, b = H[sig_j], 1.0 / sig_root[sig_j], theta0[sig_j]
    hn = float(np.linalg.norm(h))
    hhat = h / hn if hn > 0.0 else np.zeros_like(h)
    proj = np.eye(h.size) - np.outer(hhat, hhat)
    m, evec = np.linalg.eigh(proj @ (dinv[:, None] ** 2 * proj))
    if hn > 0.0:
        # the first eigenvector is hhat itself: move it last and zero it
        m, evec = np.roll(m, -1), np.roll(evec, -1, axis=1)
        m[-1] = m[-2] if m.size > 1 else 1.0
        evec[:, -1] = 0.0
    dh = dinv * hhat
    red = dict(
        ua=ua, ug=ug, sv=sv, vt=vt, pc=c0 - left @ ua, pg=G - left @ ug,
        hn=hn, hhat=hhat, m=m, evec=evec, g1=evec.T @ (dinv * dh), g0=evec.T @ (dinv * b),
        e2=float(dh @ dh), e1=float(dh @ b), bb=float(b @ b), flat=h.size == 1 and hn > 0.0,
        # the certificate's cone tolerance less room for rounding; with
        # H_J = 0 the cone is the linear system P_perp c = 0 and gets none
        slack=0.99 * feas_tol if hn > 0.0 else 0.0,
        w2s=inst.W2 * endo_root, hz=sig_root * H, G=G, xi=inst.xi, feas_tol=feas_tol, lat=lat,
    )

    nu_max = float(sig_root.max()) * (radius + float(np.linalg.norm(b)))
    edge = 0.999 * red["slack"]
    p0 = red["pc"] @ red["pc"] - edge * edge
    p1 = red["pc"] @ red["pg"] + hn * edge
    p2 = red["pg"] @ red["pg"] - hn * hn
    disc = p1 * p1 - p0 * p2
    roots = [math.nan, math.nan]
    if disc >= 0.0:
        z = p1 + math.copysign(math.sqrt(disc), p1)
        roots = [z / p2 if p2 else math.nan, p0 / z if z else math.nan]
    roots = [x if 0.0 <= x <= nu_max else nu_max for x in roots]
    ramp = np.arange(1, _NU_NODES + 1) / _NU_NODES
    nodes = np.sort(np.concatenate(([0.0], nu_max * ramp, nu_max * 1e-6 ** (1.0 - ramp), roots)))

    k = _T_GRID.size
    one = {key: np.asarray(v)[None] for key, v in red.items()}
    phi = _ao_phi(one, np.repeat(nodes, k)[None], np.tile(_T_GRID, nodes.size)[None])
    phi = phi.reshape(nodes.size, k)
    ok = phi.min(axis=1) <= radius * radius
    top = int(np.flatnonzero(ok)[-1]) if ok.any() else 0
    red.update(nodes=nodes, top=top, top_g=_T_GRID[phi[top].argmin()], top_phi=phi[top].min())
    return _AoPrepared(red, int(ok.sum()))


def _ao_climb(preps, sig, sig_root, theta0, radius):
    """Refine every prepared draw's top node as one batch and certify.

    F(nu) = min_t (L + S) - R^2 is first checked exactly at the nodes above
    the scanned top, since the grid may miss a narrow window.  Between the
    last feasible node and the next one, regula falsi with the Illinois rule
    finds the root of F, bisecting while the upper end has no finite value;
    lo stays feasible throughout.  The point rebuilt at lo counts only if it
    passes the cone (gap <= feas_tol) and the ball; returns (ok, values,
    points).
    """
    r = {k: np.stack([np.asarray(p.red[k]) for p in preps]) for k in preps[0].red}
    nodes, top, g_lo = r["nodes"], r["top"].copy(), r["top_g"].copy()
    lo = nodes[np.arange(top.size), top]
    hi = lo.copy()
    r2 = radius * radius
    f_lo = r["top_phi"] - r2
    f_hi = np.full(lo.size, np.inf)

    def window(idx, x):
        phi, g = _ao_window_min({k: v[idx] for k, v in r.items()}, x)
        return phi - r2, g

    walk = top + 1 < nodes.shape[1]
    while walk.any():
        idx = np.flatnonzero(walk)
        top[idx] += 1
        x = nodes[idx, top[idx]]
        fx, g = window(idx, x)
        feas = fx <= 0.0
        lo[idx], g_lo[idx] = np.where(feas, x, lo[idx]), np.where(feas, g, g_lo[idx])
        f_lo[idx] = np.where(feas, fx, f_lo[idx])
        hi[idx], f_hi[idx] = x, np.where(feas, np.inf, fx)
        walk[idx] = feas & (top[idx] + 1 < nodes.shape[1])

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

    _, y, u = _ao_phi(r, lo[:, None], g_lo[:, None], point=True)
    lat, sig_j = r["lat"][0], sig > 0.0
    points = np.tile(-theta0, (lo.size, 1))
    points[:, lat] += y[:, 0]
    points[:, sig_j] = u[:, 0] / sig_root[sig_j]
    gap = _cone_gap(points[:, None], sig_root, r["w2s"], r["G"], r["hz"], r["xi"])[:, 0]
    ok = (gap <= r["feas_tol"]) & _in_ball(points, theta0, radius)
    return ok, _signal_energy(points, sig), points


def _solve_ao_draws(draws) -> list[AoSolution]:
    """Comparison optima of (inst, G, H) draws of one model and one ball.

    Each draw is prepared on its own; the ones with a feasible node are
    refined as one batch, and the rest report 0 with the feasible_empty flag,
    as does a draw whose refined point fails the certificate.
    """
    inst = draws[0][0]
    sig = np.asarray(inst.signal_eigs, dtype=float)
    sig_root, endo_root = np.sqrt(sig), np.sqrt(inst.endo_eigs)
    preps = [_ao_prepare(i, G, H, sig, sig_root, endo_root) for i, G, H in draws]
    sols = [AoSolution(0.0, None, True, prep.starts_feasible) for prep in preps]
    live = [j for j, prep in enumerate(preps) if prep.starts_feasible]
    if live:
        ok, vals, points = _ao_climb(
            [preps[j] for j in live], sig, sig_root, inst.theta0, float(inst.ball_radius)
        )
        for j, good, val, point in zip(live, ok, vals, points):
            if good:
                sols[j] = AoSolution(float(val), point, False, preps[j].starts_feasible)
    return sols


def solve_ao(inst: PoInstance, G: np.ndarray, H: np.ndarray) -> AoSolution:
    """Optimum of the comparison problem for disjoint signal and latent supports.

    With S = diag(signal_eigs) and U = diag(endo_eigs), maximizes
    |S^{1/2} theta'|^2 subject to the Gaussian-comparison cone
    |xi - W2 U^{1/2} theta' - G |S^{1/2} theta'|| <= <S^{1/2} theta', H>
    and the coefficient ball, by the scalar reduction above: a node scan in
    nu, then a bracketed root of the ball budget.  The value is attained by
    the returned point, which passes the cone and ball checks.  An empty
    feasible set reports 0 with the feasible_empty flag.  Overlapping
    supports raise ValueError.
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.shape != (inst.n,) or H.shape != (inst.p,):
        raise ValueError("G must be an n-vector and H a p-vector")
    (sol,) = _solve_ao_draws([(inst, G, H)])
    return sol


def ao_grid_value(
    inst: PoInstance,
    G: np.ndarray,
    H: np.ndarray,
    points_per_axis: int = 401,
    slack: float = 1e-6,
):
    """Brute-force reference for the comparison optimum, free dimension <= 3.

    Evaluates the cone and ball constraints on a regular grid over the
    coefficient ball and returns the best feasible objective, or None when
    no grid point is feasible.  Grid points rarely sit exactly on the cone
    surface, so membership allows a small positive slack.
    """
    p = inst.p
    if p > 3:
        raise ValueError("grid reference limited to p <= 3")
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    sig = np.asarray(inst.signal_eigs, dtype=float)
    sig_root = np.sqrt(sig)
    w2s = inst.W2 * np.sqrt(inst.endo_eigs)
    hz = sig_root * H
    radius = float(inst.ball_radius)

    axes = [np.linspace(-radius, radius, points_per_axis)] * p
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[_row_norm(pts) <= radius] - inst.theta0
    gap = _cone_gap(pts, sig_root, w2s, G, hz, inst.xi)
    feasible = gap <= slack
    if not feasible.any():
        return None
    return float(_signal_energy(pts[feasible], sig).max())


# ------------------------------------------------------------ tail check


def slice_model(p: int = 4, endo_count: int | None = None) -> EndogenousModel:
    """Tiny identity-basis model with the experiment-grade spectrum shape.

    Top half of the eigenvalues goes to the latent-noise block, bottom half
    to the signal block; whitened endogeneity 2/i on the latent support and
    coefficients 20/sqrt(i) throughout.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    k = endo_count if endo_count is not None else p // 2
    if not 1 <= k < p:
        raise ValueError(f"endogenous count {k} outside [1, {p - 1}]")
    idx = np.arange(1, p + 1, dtype=float)
    eigs = 300.0 / idx / (np.log(idx + 1.0) * math.e / 2.0) ** 2
    endo = np.zeros(p)
    endo[:k] = eigs[:k]
    cov = CovarianceModel(
        p=p,
        endo_eigs=endo,
        signal_eigs=eigs - endo,
        trunc_level=k,
        split_kind="orthogonal",
    )
    rho = np.zeros(p)
    rho[:k] = 2.0 / idx[:k]
    return assemble_model(cov, 20.0 / np.sqrt(idx), whitened_cross=rho)


def draw_instance(model: EndogenousModel, n: int, rng, ball_radius: float | None = None):
    """One joint draw (instance, G, H) for the tail comparison.

    The factors come from sampling.draw_factors (W1, W2 on the latent
    support, g), then G and H are drawn, so the primary-side variables match
    sample_dataset's direct route on the same stream (a model with a flat
    signal tail of n + 1 or more columns is sampled compressed there, see
    sample_dataset).  W2 is zero-padded to n x p.
    """
    p = model.p
    w1, w2_support, xi = draw_factors(model, n, rng)
    w2 = np.zeros((n, p))
    w2[:, : w2_support.shape[1]] = w2_support
    big_g = rng.standard_normal(n)
    big_h = rng.standard_normal(p)
    if ball_radius is None:
        ball_radius = float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(
            model.noise_var
        )
    inst = PoInstance(
        W1=w1,
        W2=w2,
        xi=xi,
        ball_radius=ball_radius,
        theta0=model.true_coef,
        signal_eigs=model.cov.signal_eigs,
        endo_eigs=model.cov.endo_eigs,
    )
    return inst, big_g, big_h


_TAIL_CHUNK = 256


def _tail_chunk(args):
    """Solve one block of repetitions: primary exactly, comparison batched.

    Prepared comparison instances share shapes by construction, so the whole
    block is refined in one call instead of one Python-level loop per draw.
    """
    model, n, seed, rep_ids, ball_radius = args
    draws = [
        draw_instance(model, n, np.random.default_rng([seed, r]), ball_radius) for r in rep_ids
    ]
    sols = _solve_ao_draws(draws)
    po_vals = np.full(len(draws), -math.inf)
    for j, (inst, _, _) in enumerate(draws):
        with contextlib.suppress(NoFeasiblePoint):
            po_vals[j] = solve_po(inst).value
    ao_vals = np.array([sol.value for sol in sols])
    return po_vals, ao_vals, int(np.isinf(po_vals).sum()), sum(s.feasible_empty for s in sols)


def tail_dominance_check(
    model: EndogenousModel,
    n: int,
    reps: int,
    c_grid=None,
    seed: int = 0,
    ball_radius: float | None = None,
    grid_size: int = 20,
    max_workers: int | None = None,
) -> TailReport:
    """Empirical tails of the primary and comparison optima on a c grid.

    A grid point counts as a violation when the primary tail exceeds twice
    the comparison tail by more than three combined standard errors.  Both
    optima are solved exactly; a comparison value counts only when its
    point passes the cone and ball checks, and a draw whose point fails
    them is flagged as empty.  Per-repetition seeding and fixed block
    boundaries keep the result identical whether blocks run serially or
    across worker processes.  A scalar c_grid is a one-point grid.  A check
    with no rows, no repetition or no threshold, or a grid that is not 1-d
    or has a non-finite entry, raises ValueError before any draw is solved.
    """
    if n < 1:
        raise ValueError("need at least one row per instance")
    if reps < 1:
        raise ValueError("need at least one repetition")
    if c_grid is not None:
        c_grid = np.atleast_1d(np.asarray(c_grid, dtype=float))
        if c_grid.ndim != 1 or not np.all(np.isfinite(c_grid)):
            raise ValueError("threshold grid must be a finite scalar or 1-d sequence")
    if (c_grid.size if c_grid is not None else grid_size) < 1:
        raise ValueError("need at least one threshold")

    jobs = [
        (model, n, seed, range(lo, min(lo + _TAIL_CHUNK, reps)), ball_radius)
        for lo in range(0, reps, _TAIL_CHUNK)
    ]
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_tail_chunk, jobs))
    else:
        results = [_tail_chunk(j) for j in jobs]

    phi_po = np.concatenate([r[0] for r in results])
    phi_ao = np.concatenate([r[1] for r in results])
    po_infeasible = sum(r[2] for r in results)
    ao_empty = sum(r[3] for r in results)

    if c_grid is None:
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
