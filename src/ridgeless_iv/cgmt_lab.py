"""Desk-scale check that the interpolator's worst-case projected error is
tail-dominated by its Gaussian comparison problem.

The primary problem maximizes the signal-weighted squared error over all
ball-constrained interpolants of one data draw; the comparison problem
replaces the instrument factor by two independent Gaussian vectors and keeps
everything else.  The primary side is solved exactly (affine slice of a ball,
then a trust-region step); the comparison side is a certified lower bound
from multi-start projected gradient ascent, which only makes the dominance
check harder to pass.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .covariance import CovarianceModel, EndogenousModel, assemble_model
from .matops import default_rank_tol, null_space_basis
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
    multiplier: float
    stationarity_residual: float
    radius: float
    null_dim: int


@dataclass(frozen=True)
class AoSolution:
    value: float
    point: np.ndarray | None
    feasible_empty: bool
    starts_feasible: int
    iterations: int


@dataclass(frozen=True)
class TailReport:
    c_grid: np.ndarray
    p_phi_gt: np.ndarray
    p_phi_ao_ge: np.ndarray
    stderr_po: np.ndarray
    stderr_ao: np.ndarray
    violations: int
    reps: int
    phi_po: np.ndarray
    phi_ao: np.ndarray
    flags: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        out = []
        for i, c in enumerate(self.c_grid):
            out.append(
                {
                    "c": float(c),
                    "p_phi_gt": float(self.p_phi_gt[i]),
                    "p_phi_ao_ge": float(self.p_phi_ao_ge[i]),
                    "stderr_po": float(self.stderr_po[i]),
                    "stderr_ao": float(self.stderr_ao[i]),
                    "violation": bool(
                        self.p_phi_gt[i]
                        > 2.0 * self.p_phi_ao_ge[i]
                        + 3.0 * (self.stderr_po[i] + 2.0 * self.stderr_ao[i])
                    ),
                }
            )
        return out


# ------------------------------------------------------------------ primary


def _ball_quadratic_max(a: np.ndarray, b: np.ndarray, radius: float):
    """Maximize s'As + 2b's over |s| <= radius for symmetric PSD A.

    Returns (s*, multiplier, stationarity residual).  The maximizer sits on
    the sphere; the multiplier solves the secular equation, with the usual
    hard case when b has no component in the top eigenspace.
    """
    m = a.shape[0]
    if m == 0 or radius <= 0.0:
        return np.zeros(m), 0.0, 0.0
    eigvals, eigvecs = scipy.linalg.eigh(a)
    lam_top = float(eigvals[-1])
    beta = eigvecs.T @ b
    scale = max(1.0, abs(lam_top), float(np.linalg.norm(b)) / max(radius, 1e-300))
    edge = lam_top + 1e-13 * scale
    r2 = radius * radius

    def shifted_norm_sq(mu):
        return float(np.sum((beta / (mu - eigvals)) ** 2))

    if shifted_norm_sq(edge) <= r2:
        # hard case: the top eigen-direction carries no linear term, so the
        # multiplier pins to the top eigenvalue and the sphere is filled out
        # along that direction
        s_eig = np.where(edge - eigvals > 0, beta / (edge - eigvals), 0.0)
        pad = math.sqrt(max(r2 - float(s_eig @ s_eig), 0.0))
        s_eig[-1] += pad
        mu = lam_top
        s = eigvecs @ s_eig
    else:
        hi = edge + scale
        while shifted_norm_sq(hi) > r2:
            hi = edge + 2.0 * (hi - edge)
        mu = brentq(lambda m_: shifted_norm_sq(m_) - r2, edge, hi, xtol=1e-14 * scale)
        s = eigvecs @ (beta / (mu - eigvals))
    resid = float(np.linalg.norm((mu * s - a @ s) - b)) / max(1.0, float(np.linalg.norm(b)))
    resid = max(resid, abs(float(np.linalg.norm(s)) - radius) / max(1.0, radius))
    return s, float(mu), resid


def max_projected_error(
    design: np.ndarray,
    xi: np.ndarray,
    ball_radius: float,
    theta0: np.ndarray,
    signal_eigs: np.ndarray,
    details: bool = False,
):
    """Global maximum of (theta - theta0)' diag(signal_eigs) (theta - theta0)
    over the interpolants {theta : design (theta - theta0) = xi, |theta| <= radius}.

    Exact solve: min-norm particular solution, orthonormal null-space
    coordinates, then the sphere-constrained quadratic maximization.
    """
    design = np.asarray(design, dtype=float)
    xi = np.asarray(xi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    sig = np.asarray(signal_eigs, dtype=float)
    n, p = design.shape
    if sig.shape != (p,):
        raise ValueError("signal_eigs must be a p-vector")

    part, *_ = np.linalg.lstsq(design, xi, rcond=None)
    gap = float(np.linalg.norm(design @ part - xi))
    if gap > _FEAS_REL * (1.0 + float(np.linalg.norm(xi))):
        raise NoFeasiblePoint(f"linear system inconsistent, residual {gap:g}")

    basis = null_space_basis(design)
    m = basis.shape[1]
    d = part + theta0
    if m == 0:
        if float(np.linalg.norm(d)) > ball_radius * (1.0 + _FEAS_REL):
            raise NoFeasiblePoint("unique interpolant falls outside the ball")
        value = float(part @ (sig * part))
        sol = PoSolution(value, part, 0.0, 0.0, 0.0, 0)
        return (value, sol) if details else value

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
    s, mu, resid = _ball_quadratic_max(a, b, radius)

    theta_prime = anchor + basis @ s
    value = float(theta_prime @ (sig * theta_prime))
    sol = PoSolution(value, theta_prime, mu, resid, radius, m)
    return (value, sol) if details else value


def solve_po(inst: PoInstance, details: bool = False):
    """Exact optimum of the primary problem for one instance draw."""
    return max_projected_error(
        inst.design(), inst.xi, inst.ball_radius, inst.theta0, inst.signal_eigs, details=details
    )


# --------------------------------------------------------------- comparison


def _substream(seed, k: int):
    if isinstance(seed, (tuple, list)):
        return np.random.default_rng([*[int(s) for s in seed], int(k)])
    return np.random.default_rng([int(seed), int(k)])


def _row_norm(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm dispatch overhead dominates at these sizes
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _project_ball(x: np.ndarray, theta0: np.ndarray, radius: float) -> np.ndarray:
    y = x + theta0
    norms = _row_norm(y)[..., None]
    scale = np.minimum(1.0, radius / np.where(norms > 0, norms, 1.0))
    return y * scale - theta0


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


def _cone_gap_grad(x, sig, sig_root, w2s, G, hz, xi):
    # one residual evaluation serves both the gap and its gradient
    nu = _row_norm(x * sig_root)
    resid = (
        xi[..., None, :]
        - np.einsum("...sp,...np->...sn", x, w2s)
        - nu[..., None] * G[..., None, :]
    )
    rnorm = _row_norm(resid)
    rhat = resid / np.where(rnorm > 0, rnorm, 1.0)[..., None]
    dnu = x * sig / np.where(nu > 0, nu, 1.0)[..., None]
    grad = (
        -np.einsum("...sn,...np->...sp", rhat, w2s)
        - np.einsum("...sn,...n->...s", rhat, G)[..., None] * dnu
        - hz[..., None, :]
    )
    return rnorm - np.einsum("...sp,...p->...s", x, hz), grad


def _cone_restore(x, sig, sig_root, w2s, G, hz, xi, theta0, radius, tol, rounds=3):
    # Newton steps on the gap along its gradient, then ball projection; tol
    # broadcasts against the gap, so per-row tolerances need a trailing axis
    for _ in range(rounds):
        gap, gh = _cone_gap_grad(x, sig, sig_root, w2s, G, hz, xi)
        m = gap > tol
        if not m.any():
            break
        gm = gh[m]
        denom = np.maximum(np.einsum("ij,ij->i", gm, gm), 1e-300)
        x[m] = _project_ball(x[m] - (gap[m] / denom)[:, None] * gm, theta0, radius)
    return x


def _signal_energy(x, sig):
    return np.einsum("...p,p,...p->...", x, sig, x)


def _in_ball(x, theta0, radius):
    return _row_norm(x + theta0) <= radius * (1.0 + 1e-12)


@dataclass(frozen=True)
class _AoPrepared:
    """Per-instance start block and constants for the ascent phase."""

    x0: np.ndarray
    w2s: np.ndarray
    hz: np.ndarray
    G: np.ndarray
    xi: np.ndarray
    feas_tol: float
    active_tol: float
    starts_feasible: int
    probe: np.ndarray | None


def _ao_prepare(inst, G, H, starts, seed, sig, sig_root, endo_root) -> _AoPrepared:
    """Zero-signal probe, structured candidate pool, rescue sweep, padding.

    The returned start block always has starts + 1 rows (the sorted feasible
    pool cycled, with the probe last when it exists) so prepared instances
    stack into one batch; an empty feasible set yields starts_feasible = 0.
    """
    w2s = inst.W2 * endo_root
    hz = sig_root * H
    xi = inst.xi
    theta0 = inst.theta0
    radius = float(inst.ball_radius)
    xi_scale = 1.0 + float(np.linalg.norm(xi))
    feas_tol = 1e-9 * xi_scale
    active_tol = 1e-7 * xi_scale

    # zero-signal probe: theta' on the coordinates where the signal root is
    # zero (null_space_basis's cutoff) with the latent factor reproducing xi
    probe = None
    zero = sig_root <= default_rank_tol(inst.p) * sig_root.max()
    if zero.any():
        cand = np.zeros(inst.p)
        cand[zero], *_ = np.linalg.lstsq(w2s[:, zero], xi, rcond=None)
        if float(np.linalg.norm(w2s @ cand - xi)) <= feas_tol and float(
            np.linalg.norm(cand + theta0)
        ) <= radius * (1.0 + _FEAS_REL):
            probe = cand

    # candidate pool: fixed-point solves of the cone equation at varied null
    # offsets (random substreams plus deterministic axis scans), each with a
    # signal-flipped twin that negates <theta1, H> under orthogonal blocks
    pinv_w = np.linalg.pinv(w2s)
    null_w = null_space_basis(w2s)
    m_w = null_w.shape[1]
    flip = np.where(sig > 1e-12 * max(float(sig.max()), 1.0), -1.0, 1.0)

    offsets = [np.zeros(inst.p)]
    if m_w:
        for k in range(max(1, starts // 2)):
            rng = _substream(seed, k)
            amp = radius * 10.0 ** rng.uniform(-3.0, 0.0)
            offsets.append(null_w @ (amp * rng.standard_normal(m_w)))
        for j in range(min(m_w, 2)):
            for amp in radius * 10.0 ** np.linspace(-3.0, 0.0, 5):
                offsets.append(null_w[:, j] * amp)
                offsets.append(null_w[:, j] * -amp)
    offs = np.array(offsets)

    x = _project_ball(pinv_w @ xi + offs, theta0, radius)
    for _ in range(8):
        nu = _row_norm(x * sig_root)
        x = _project_ball((xi - nu[:, None] * G) @ pinv_w.T + offs, theta0, radius)
    pool = [x, x * flip]
    # anchors with an explicit Gaussian-direction coefficient, targeting the
    # self-consistent scale |diag(signal)^{1/2} theta'| directly
    g_norm = float(np.linalg.norm(G))
    if g_norm > 0:
        cs = float(np.linalg.norm(xi)) / g_norm * np.array([0.0, 0.25, 0.5, 1.0, 2.0])
        anchors = (xi - cs[:, None] * G) @ pinv_w.T
        pool += [anchors, anchors * flip]
    pool = _project_ball(np.vstack(pool), theta0, radius)
    pool = _cone_restore(pool, sig, sig_root, w2s, G, hz, xi, theta0, radius, feas_tol, rounds=4)
    keep = (_cone_gap(pool, sig_root, w2s, G, hz, xi) <= feas_tol) & _in_ball(
        pool, theta0, radius
    )
    pool = pool[keep]
    if pool.shape[0] == 0 and probe is None:
        # rescue sweep before declaring the set empty: restored uniform draws
        # from the whole ball, not just the structured anchors
        rng = _substream(seed, 999983)
        y = rng.standard_normal((1024, inst.p))
        y *= (radius * rng.uniform(0.0, 1.0, (1024, 1)) ** (1.0 / inst.p)) / np.maximum(
            _row_norm(y)[:, None], 1e-300
        )
        y = _cone_restore(
            y - theta0, sig, sig_root, w2s, G, hz, xi, theta0, radius, feas_tol, rounds=25
        )
        keep = (_cone_gap(y, sig_root, w2s, G, hz, xi) <= feas_tol) & _in_ball(
            y, theta0, radius
        )
        pool = y[keep]

    rows = []
    if pool.shape[0]:
        order = np.argsort(_signal_energy(pool, sig))[::-1]
        rows = list(pool[order[:starts]])
    if probe is not None:
        rows.append(probe)
    if not rows:
        return _AoPrepared(
            np.zeros((0, inst.p)), w2s, hz, G, xi, feas_tol, active_tol, 0, None
        )
    x0 = np.array([rows[i % len(rows)] for i in range(starts + 1)])
    return _AoPrepared(x0, w2s, hz, G, xi, feas_tol, active_tol, len(rows), probe)


_STALL_REL = 1e-7


def _ao_climb(
    x, sig, sig_root, w2s, G, hz, xi, theta0, radius,
    feas_tol, active_tol, iterations, best_val, best_x,
):
    """Projected-gradient ascent over a batch of prepared instances.

    x is (B, S, p) with per-instance w2s (B, n, p), G/xi (B, n), hz (B, p),
    tolerances (B,).  In the cone interior the step follows the objective
    gradient; on the boundary it follows the gradient projected onto the
    constraint tangent, with Newton feasibility restoration after each step
    and per-row backtracking (shrink 0.5).  Work shrinks with the live set:
    each iteration gathers only rows whose step has not collapsed and whose
    instance has not stalled.  Only feasible iterates update the
    per-instance incumbents (best_val, best_x), updated in place.
    """
    n_batch = x.shape[0]
    bidx = np.arange(n_batch)
    vals = _signal_energy(x, sig)
    cur = vals.max(axis=-1)
    arg = vals.argmax(axis=-1)
    upd = cur > best_val
    best_val[upd] = cur[upd]
    best_x[upd] = x[bidx[upd], arg[upd]]

    step = radius / (4.0 * (1.0 + _row_norm(2.0 * x * sig)))
    stalled = np.zeros(n_batch, dtype=int)
    dead = 1e-16 * radius
    for _ in range(iterations):
        rb, rs = np.nonzero(step > dead)
        if rb.size == 0:
            break
        xa = x[rb, rs]
        va = vals[rb, rs]
        sa = step[rb, rs]
        w2a, ga, hza, xia = w2s[rb], G[rb], hz[rb], xi[rb]
        fta = feas_tol[rb]

        grad = 2.0 * xa * sig
        gap, gh = _cone_gap_grad(xa[:, None], sig, sig_root, w2a, ga, hza, xia)
        gap, gh = gap[:, 0], gh[:, 0]
        gh_sq = np.maximum(np.einsum("ij,ij->i", gh, gh), 1e-300)
        coef = np.where(
            gap > -active_tol[rb],
            np.maximum(np.einsum("ij,ij->i", grad, gh), 0.0) / gh_sq,
            0.0,
        )
        direction = grad - coef[:, None] * gh

        ok = np.zeros(rb.size, dtype=bool)
        todo = np.arange(rb.size)
        for _ in range(25):
            if todo.size == 0:
                break
            cand = _project_ball(xa[todo] + sa[todo, None] * direction[todo], theta0, radius)
            consts = (w2a[todo], ga[todo], hza[todo], xia[todo])
            cand = _cone_restore(
                cand[:, None], sig, sig_root, *consts, theta0, radius, fta[todo, None]
            )[:, 0]
            cobj = _signal_energy(cand, sig)
            good = (
                _cone_gap(cand[:, None], sig_root, *consts)[:, 0] <= fta[todo]
            ) & (cobj > va[todo] + 1e-14 * np.maximum(1.0, va[todo]))
            hit = todo[good]
            xa[hit] = cand[good]
            va[hit] = cobj[good]
            ok[hit] = True
            sa[todo[~good]] *= 0.5
            todo = todo[~good]
            todo = todo[sa[todo] > dead]
        sa[ok] *= 1.25
        x[rb, rs] = xa
        vals[rb, rs] = va
        step[rb, rs] = sa

        cur = vals.max(axis=-1)
        arg = vals.argmax(axis=-1)
        improved = cur > best_val + _STALL_REL * np.maximum(1.0, np.abs(best_val))
        upd = cur > best_val
        best_val[upd] = cur[upd]
        best_x[upd] = x[bidx[upd], arg[upd]]
        stalled = np.where(improved, 0, stalled + 1)
        step[stalled >= 3, :] = 0.0
    return best_val, best_x


def _ao_ascend(preps, sig, sig_root, theta0, radius, iterations):
    """Climb prepared instances (each with a feasible start) as one batch.

    Each incumbent starts at the zero-signal probe (value 0) when one
    exists.  Returns (ok, values, points) per instance after re-verifying
    every incumbent against the cone and the ball; ok False means the
    incumbent failed that check and its value must not be reported.
    """
    w2s = np.stack([prep.w2s for prep in preps])
    big_g = np.stack([prep.G for prep in preps])
    hz = np.stack([prep.hz for prep in preps])
    xi = np.stack([prep.xi for prep in preps])
    feas_tol = np.array([prep.feas_tol for prep in preps])
    best_val = np.array([-math.inf if prep.probe is None else 0.0 for prep in preps])
    best_x = np.stack(
        [np.zeros(prep.x0.shape[-1]) if prep.probe is None else prep.probe for prep in preps]
    )
    best_val, best_x = _ao_climb(
        np.stack([prep.x0 for prep in preps]), sig, sig_root, w2s, big_g, hz, xi, theta0, radius,
        feas_tol, np.array([prep.active_tol for prep in preps]), iterations, best_val, best_x,
    )
    gap = _cone_gap(best_x[:, None, :], sig_root, w2s, big_g, hz, xi)[:, 0]
    ok = (gap <= feas_tol) & _in_ball(best_x, theta0, radius)
    return ok, _signal_energy(best_x, sig), best_x


def solve_ao(
    inst: PoInstance,
    G: np.ndarray,
    H: np.ndarray,
    starts: int = 32,
    iterations: int = 200,
    seed=0,
    details: bool = False,
):
    """Certified lower bound on the comparison problem's optimum.

    With S = diag(signal_eigs) and U = diag(endo_eigs), maximizes
    |S^{1/2} theta'|^2 subject to the Gaussian-comparison cone
    |xi - W2 U^{1/2} theta' - G |S^{1/2} theta'|| <= <S^{1/2} theta', H>
    and the coefficient ball, by multi-start projected gradient
    ascent over a structured candidate pool (deterministic substream seeds).
    Only verified feasible iterates update the incumbent, so the returned
    value is attained by a feasible point.  An empty feasible set reports 0
    with the feasible_empty flag after probing the zero-signal point first.
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.shape != (inst.n,) or H.shape != (inst.p,):
        raise ValueError("G must be an n-vector and H a p-vector")
    sig = np.asarray(inst.signal_eigs, dtype=float)
    sig_root = np.sqrt(sig)
    prep = _ao_prepare(inst, G, H, starts, seed, sig, sig_root, np.sqrt(inst.endo_eigs))
    if prep.starts_feasible == 0:
        sol = AoSolution(0.0, None, True, 0, 0)
    else:
        ok, vals, points = _ao_ascend(
            [prep], sig, sig_root, inst.theta0, float(inst.ball_radius), iterations
        )
        if ok[0]:
            sol = AoSolution(float(vals[0]), points[0], False, prep.starts_feasible, iterations)
        else:
            sol = AoSolution(0.0, None, True, prep.starts_feasible, iterations)
    return (sol.value, sol) if details else sol.value


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
    sample_dataset on the same stream.  W2 is zero-padded to n x p.
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
    block climbs in one call instead of one Python-level loop per draw.
    """
    model, n, seed, rep_ids, ball_radius, starts, iterations = args
    sig = model.cov.signal_eigs
    sig_root = np.sqrt(sig)
    endo_root = np.sqrt(model.cov.endo_eigs)

    m = len(rep_ids)
    po_vals = np.full(m, -math.inf)
    ao_vals = np.zeros(m)
    empty = np.ones(m, dtype=bool)
    po_bad = 0
    preps, insts = [], []
    for r in rep_ids:
        rng = np.random.default_rng([seed, r])
        inst, big_g, big_h = draw_instance(model, n, rng, ball_radius)
        preps.append(
            _ao_prepare(inst, big_g, big_h, starts, (seed, r, 1), sig, sig_root, endo_root)
        )
        insts.append(inst)
    for j, inst in enumerate(insts):
        try:
            po_vals[j] = solve_po(inst)
        except NoFeasiblePoint:
            po_bad += 1

    live = [j for j in range(m) if preps[j].starts_feasible > 0]
    if live:
        ok, vals, _ = _ao_ascend(
            [preps[j] for j in live], sig, sig_root, insts[0].theta0,
            float(insts[0].ball_radius), iterations,
        )
        ao_vals[live] = np.where(ok, vals, 0.0)
        empty[live] = ~ok
    return po_vals, ao_vals, po_bad, int(empty.sum())


def tail_dominance_check(
    model: EndogenousModel,
    n: int,
    reps: int,
    c_grid=None,
    seed: int = 0,
    ball_radius: float | None = None,
    grid_size: int = 20,
    starts: int = 32,
    iterations: int = 200,
    max_workers: int | None = None,
) -> TailReport:
    """Empirical tails of the primary and comparison optima on a c grid.

    A grid point counts as a violation when the primary tail exceeds twice
    the comparison tail by more than three combined standard errors.  The
    comparison values are lower bounds, so violations can only be
    overcounted, never hidden.  Per-repetition seeding and fixed block
    boundaries keep the result identical whether blocks run serially or
    across worker processes.
    """
    if reps < 1:
        raise ValueError("need at least one repetition")

    jobs = [
        (model, n, seed, range(lo, min(lo + _TAIL_CHUNK, reps)), ball_radius,
         starts, iterations)
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
    c_grid = np.asarray(c_grid, dtype=float)

    p_po = np.array([float(np.mean(phi_po > c)) for c in c_grid])
    p_ao = np.array([float(np.mean(phi_ao >= c)) for c in c_grid])
    se_po = np.sqrt(p_po * (1.0 - p_po) / reps)
    se_ao = np.sqrt(p_ao * (1.0 - p_ao) / reps)
    bad = p_po > 2.0 * p_ao + 3.0 * (se_po + 2.0 * se_ao)
    return TailReport(
        c_grid=c_grid,
        p_phi_gt=p_po,
        p_phi_ao_ge=p_ao,
        stderr_po=se_po,
        stderr_ao=se_ao,
        violations=int(np.count_nonzero(bad)),
        reps=reps,
        phi_po=phi_po,
        phi_ao=phi_ao,
        flags={"po_infeasible": po_infeasible, "ao_feasible_empty": ao_empty},
    )
