"""The batched Newton kernels of the comparison solver against per-point
scalar references and each point alone against the point inside a larger
call, the broadcast node scan against the flattened one and the chunk's
top-down scan against a scan of every node, the batched reduction of a
chunk's draws against each draw reduced alone, and the window search: its
slope against central differences and its minimum against the
golden-section reference.

The kernels take their component axis first.  A sum over a first axis adds
the components in order, while numpy sums a last axis in another order
(einsum from 3 components, the pairwise sum from 8), so results may differ
from a last-axis layout in the last bit; the scalar references are compared
with tolerances for that reason.
"""

import dataclasses
import math
from itertools import compress

import numpy as np
import pytest

from references import golden_window_min
from ridgeless_iv import cgmt_lab
from ridgeless_iv.cgmt_lab import (
    _SLOPE_STEPS,
    _T_GRID,
    _ao_at_nu,
    _ao_phi,
    _ao_prepare,
    _ao_reduce,
    _ao_window_min,
    _solve_ao_draws,
    _sphere_min,
    _tail_chunk,
    _tikhonov,
    draw_instance,
    slice_model,
)
from ridgeless_iv.harness import setup_model

COMPONENTS = (1, 2, 9)


def default_radius(model):
    """tail_dominance_check's default ball radius, |theta0| + 50 sigma."""
    return float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)


def tikhonov_reference(alpha, sv2, tau2):
    """mu >= 0 with sum (mu a_i / (sv2_i + mu))^2 = tau2, by bisection on
    kappa = 1/mu, where the sum is (a_i / (1 + kappa sv2_i))^2, decreasing."""
    total = sum(a * a for a in alpha)
    if tau2 <= 0.0:
        return 0.0
    if tau2 >= total:
        return math.inf

    def excess(kap):
        return sum((a / (1.0 + kap * s)) ** 2 for a, s in zip(alpha, sv2)) - tau2

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / (0.5 * (lo + hi))


def sphere_reference(m, gam, rho):
    """argmin of sum(m w^2 + 2 gam w) on |w| = rho, m ascending, from the
    secular equation |w(lam)| = rho, w_i = -gam_i / (m_i + lam), bisected on
    lam > -m_0; the hard case (|w| short of rho at the pole, gam_0 = 0)
    puts the rest of the radius on the first coordinate."""
    q = len(m)
    if rho == 0.0:
        return [0.0] * q

    def point(lam):
        return [-g / (mi + lam) if mi + lam > 0.0 else 0.0 for mi, g in zip(m, gam)]

    def norm(w):
        return math.sqrt(sum(x * x for x in w))

    pole = point(-m[0])
    if gam[0] == 0.0 and norm(pole) < rho:
        pole[0] = -math.sqrt(rho * rho - norm(pole) ** 2)
        return pole
    lo, hi = -m[0], -m[0] + 1.0
    while norm(point(hi)) > rho:
        hi = -m[0] + 2.0 * (hi + m[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm(point(mid)) > rho:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi))


def sphere_value(m, gam, w):
    return float(np.sum(m * w * w + 2.0 * gam * w, axis=0))


# --------------------------------------------------------------- _tikhonov


@pytest.mark.parametrize("q", COMPONENTS)
def test_tikhonov_matches_scalar_reference(q):
    rng = np.random.default_rng(q)
    points = 40
    alpha = rng.standard_normal((q, points))
    sv2 = rng.uniform(0.1, 3.0, (q, 1))
    total = (alpha * alpha).sum(axis=0)
    # below 0 (mu = 0), inside (0, |alpha|^2) and at or beyond |alpha|^2
    # (mu = inf)
    tau2 = total * rng.uniform(-0.5, 1.3, points)
    tau2[:3] = (0.0, total[1], -1.0)
    mu = _tikhonov(alpha, sv2, tau2)
    assert mu.shape == (points,)
    for j in range(points):
        want = tikhonov_reference(alpha[:, j], sv2[:, 0], tau2[j])
        if want in (0.0, math.inf):
            assert mu[j] == want, j
        else:
            assert mu[j] == pytest.approx(want, rel=1e-9), j
            r = mu[j] * alpha[:, j] / (sv2[:, 0] + mu[j])
            assert r @ r == pytest.approx(tau2[j], rel=1e-11)


def test_tikhonov_dropped_components():
    # a zero singular value carries a zero alpha (the rank mask of the
    # reduction); the kept components alone decide mu
    alpha = np.array([[1.5], [0.0], [-0.5]])
    sv2 = np.array([[2.0], [0.0], [0.7]])
    mu = _tikhonov(alpha, sv2, np.array([1.2]))
    want = tikhonov_reference([1.5, -0.5], [2.0, 0.7], 1.2)
    assert mu[0] == pytest.approx(want, rel=1e-9)


def test_tikhonov_broadcasts_like_the_scan():
    # alpha per node (q, N, 1) and tau2 per node and position (N, K)
    rng = np.random.default_rng(7)
    alpha = rng.standard_normal((2, 5, 1))
    sv2 = rng.uniform(0.5, 2.0, (2, 1, 1))
    tau2 = (alpha * alpha).sum(axis=0) * rng.uniform(0.05, 0.95, (5, 4))
    mu = _tikhonov(alpha, sv2, tau2)
    assert mu.shape == (5, 4)
    for i in range(5):
        for k in range(4):
            want = tikhonov_reference(alpha[:, i, 0], sv2[:, 0, 0], tau2[i, k])
            assert mu[i, k] == pytest.approx(want, rel=1e-9)


# -------------------------------------------------------------- _sphere_min


@pytest.mark.parametrize("q", COMPONENTS)
def test_sphere_min_matches_scalar_reference(q):
    rng = np.random.default_rng(10 + q)
    points = 30
    m = np.sort(rng.uniform(-2.0, 3.0, q))[:, None]
    gam = rng.standard_normal((q, points))
    rho = rng.uniform(0.1, 4.0, points)
    rho[0] = 0.0  # w = 0
    w, _ = _sphere_min(m, gam, rho)
    assert w.shape == (q, points)
    for j in range(points):
        want = np.array(sphere_reference(m[:, 0], gam[:, j], rho[j]))
        np.testing.assert_allclose(w[:, j], want, rtol=1e-8, atol=1e-10 * rho[j])
        assert math.sqrt(w[:, j] @ w[:, j]) == pytest.approx(rho[j], rel=1e-12)
        best = sphere_value(m[:, 0], gam[:, j], want)
        assert sphere_value(m[:, 0], gam[:, j], w[:, j]) <= best + 1e-10 * (1.0 + abs(best))


@pytest.mark.parametrize("q", COMPONENTS)
def test_sphere_min_hard_case(q):
    # gam[0] = 0 and the pole lam = -m[0] leaves |w| short of rho: the rest
    # of the radius goes along the first coordinate
    m = np.linspace(1.0, 3.0, q)[:, None]
    gam = np.full((q, 1), 0.1)
    gam[0] = 0.0
    rho = np.array([1.0])
    w = _sphere_min(m, gam, rho)[0][:, 0]
    want = np.array(sphere_reference(m[:, 0], gam[:, 0], 1.0))
    np.testing.assert_allclose(w[1:], want[1:], rtol=1e-12, atol=1e-15)
    assert abs(w[0]) == pytest.approx(abs(want[0]), rel=1e-12)
    assert w @ w == pytest.approx(1.0, rel=1e-12)
    assert sphere_value(m[:, 0], gam[:, 0], w) == pytest.approx(
        sphere_value(m[:, 0], gam[:, 0], want), rel=1e-12
    )


def test_sphere_min_scalar_radius():
    # the primary side passes one sphere: (q,) vectors and a 0-d radius
    m = np.array([-1.0, 0.5, 2.0])
    gam = np.array([0.3, -0.2, 0.7])
    w, _ = _sphere_min(m, gam, np.float64(1.5))
    assert w.shape == (3,)
    np.testing.assert_allclose(w, sphere_reference(m, gam, 1.5), rtol=1e-8, atol=1e-12)


# ------------------------------------------------------- per-point stopping


def chunk_batch(model, n, seed, reps):
    """The reduced batch of the tail-check chunk of seed and rep ids reps."""
    draws = [draw_instance(model, n, np.random.default_rng([seed, rep])) for rep in reps]
    return _ao_reduce(model, draws, default_radius(model))


def scan_every_node(batch):
    """L + S of every draw at every nu node and window position in one
    _ao_phi call: draws (B, N, 1) against positions (1, 1, K)."""
    r = {k: batch.red[k] for k in cgmt_lab._PHI_KEYS}
    return _ao_phi(_ao_at_nu(r, batch.red["nodes"].T[..., None]), _T_GRID[None, None])


def kernel_points(monkeypatch, batch):
    """The arguments scan_every_node hands each Newton kernel, spread to one
    column per point: (q, M) vectors and an M-vector."""
    seen = {}
    with monkeypatch.context() as patch:
        for name in ("_tikhonov", "_sphere_min"):
            kernel = getattr(cgmt_lab, name)

            def spy(*args, kernel=kernel, name=name):
                seen[name] = args
                return kernel(*args)

            patch.setattr(cgmt_lab, name, spy)
        scan_every_node(batch)
    points = {}
    for name, (vec_a, vec_b, scalar) in seen.items():
        shape = np.broadcast_shapes(vec_a.shape[1:], vec_b.shape[1:], np.shape(scalar))
        q = vec_a.shape[0]
        spread = [np.broadcast_to(v, (q,) + shape).reshape(q, -1) for v in (vec_a, vec_b)]
        points[name] = (*spread, np.broadcast_to(scalar, shape).ravel())
    return points


def tikhonov_next_step(alpha, sv2, tau2, mu):
    """The Newton step in kappa that _tikhonov would take from the root mu
    it returned, with the kernel's own arithmetic, and that kappa."""
    kap = 1.0 / mu
    den = 1.0 + kap * sv2
    r2 = alpha * alpha / (den * den)
    nr = np.sqrt(r2.sum(axis=0))
    return (1.0 / np.sqrt(tau2) - 1.0 / nr) * nr**3 / (r2 * sv2 / den).sum(axis=0), kap


def assert_each_point_alone(kernel, args, out, stiff):
    """The stiff points, and the others in 16 runs, each called apart, get
    the bytes they got inside the whole call."""
    assert stiff.any() and not stiff.all()
    for part in [np.flatnonzero(stiff)] + np.array_split(np.flatnonzero(~stiff), 16):
        # take keeps the points contiguous, as the scan lays them out
        alone = kernel(*(np.take(a, part, axis=-1) for a in args))
        for got, want in zip(alone, out):
            np.testing.assert_array_equal(got, want[..., part])


def test_tikhonov_points_stop_on_their_own(monkeypatch):
    # the whole-chunk scan of the criterion-10 chunk of reps 256-511 holds a
    # point whose steps alternate at the rounding floor, +-1.04e-13 of its
    # kappa, out of step with other such points: a stop taken for the whole
    # call at once would never come, and the call would run all _MAX_STEPS
    # steps.  Each point stops at its own first small step, so the stiff
    # points and the others get their bytes alone
    batch = chunk_batch(slice_model(4), 3, 0, range(256, 512))
    args = kernel_points(monkeypatch, batch)["_tikhonov"]
    mu = _tikhonov(*args)
    inner = (mu > 0.0) & np.isfinite(mu)
    step, kap = tikhonov_next_step(*(a[..., inner] for a in args), mu[inner])
    stiff = np.zeros(mu.size, dtype=bool)
    stiff[inner] = step > 1e-13 * kap
    assert_each_point_alone(lambda *a: (_tikhonov(*a),), args, (mu,), stiff)


def test_sphere_min_points_stop_on_their_own(monkeypatch):
    # slice_model(20)'s spheres settle in one to about ten steps.  One sphere
    # is added by hand: its pole is lam = 0 and its radius a hair above
    # |w| there, with gam[0] = 1e-40, so Newton grows lam about 1.5x a step
    # from 3e-40 and takes over 40 steps, while its steps stay far above
    # 1e-13 |lam|.  The spheres that settle first keep their own bytes
    batch = chunk_batch(slice_model(20), 5, 1, range(32))
    m, gam, rho = kernel_points(monkeypatch, batch)["_sphere_min"]
    slow_m, slow_gam = np.zeros((m.shape[0], 1)), np.zeros((m.shape[0], 1))
    slow_m[:, 0] = np.arange(m.shape[0])
    slow_gam[:3, 0] = (1e-40, 0.3, -0.2)
    args = (np.hstack((m, slow_m)), np.hstack((gam, slow_gam)), np.append(rho, 0.1**0.5 * (1 + 1e-15)))
    out = _sphere_min(*args)
    with monkeypatch.context() as patch:
        patch.setattr(cgmt_lab, "_MAX_STEPS", 30)
        assert _sphere_min(*args)[1][-1] < out[1][-1]
    assert_each_point_alone(_sphere_min, args, out, np.arange(rho.size + 1) == rho.size)


# ------------------------------------------------------------ node scan


@pytest.mark.parametrize("p, n", [(4, 3), (20, 5)])
def test_broadcast_scan_equals_flat_scan(p, n):
    # nodes (1, N, 1) against positions (1, 1, K) give the same bytes as
    # every (node, position) pair spelled out by repeat and tile
    model = slice_model(p)
    draws = [draw_instance(model, n, np.random.default_rng([11, rep])) for rep in range(3)]
    batch = _ao_reduce(model, draws, default_radius(model))
    for j in range(len(draws)):
        prep = _ao_prepare(batch, j)
        one = {k: batch.red[k][..., j : j + 1] for k in cgmt_lab._PHI_KEYS}
        nodes, k = batch.red["nodes"][:, j], _T_GRID.size
        wide = _ao_phi(_ao_at_nu(one, nodes[None, :, None]), _T_GRID[None, None])[0]
        flat = _ao_phi(
            _ao_at_nu(one, np.repeat(nodes, k)[None]), np.tile(_T_GRID, nodes.size)[None]
        )
        np.testing.assert_array_equal(wide, flat.reshape(nodes.size, k))
        assert prep.top_phi == wide[prep.top].min()


@pytest.mark.parametrize(
    "model, n, reps, some_empty",
    [(slice_model(4), 3, 256, True), (setup_model("ii", 10), 10, 64, False)],
    ids=["slice4", "ii"],
)
def test_top_down_scan_matches_every_node(model, n, reps, some_empty):
    # the chunk's scan, from the top node down over the unsettled draws,
    # against L + S of every draw at every node and position: the same top
    # (the last feasible node), the same best position and the same bytes
    # there.  starts_feasible is 1 + the top's index, and 0 (with node 0
    # as the top) on a draw with no feasible node
    batch = chunk_batch(model, n, 0, range(reps))
    phi = scan_every_node(batch)
    ok = phi.min(axis=2) <= batch.radius**2
    empty = 0
    for j in range(reps):
        prep = _ao_prepare(batch, j)
        feasible = np.flatnonzero(ok[j])
        top = feasible[-1] if feasible.size else 0
        best = phi[j, top].argmin()
        assert (prep.top, prep.top_g, prep.top_phi) == (top, _T_GRID[best], phi[j, top, best])
        assert prep.starts_feasible == (top + 1 if feasible.size else 0)
        empty += feasible.size == 0
    assert (empty > 0) == some_empty


# ------------------------------------------------------- batched reduction


@pytest.mark.parametrize("p, n", [(4, 3), (20, 5)])
def test_batched_reduction_matches_batch_of_one(p, n):
    # reducing a chunk's draws together gives each draw what reducing it
    # alone gives, so the scan finds the same nodes and top node; one draw
    # has H_J = 0, which keeps its eigenvectors unrolled
    model = slice_model(p)
    draws = [draw_instance(model, n, np.random.default_rng([5, rep])) for rep in range(16)]
    draws[3] = dataclasses.replace(draws[3], H=np.where(model.signal_eigs > 0.0, 0.0, draws[3].H))
    batch = _ao_reduce(model, draws, default_radius(model))
    m, evec, hhat = batch.red["m"], batch.red["evec"], batch.red["hhat"]
    # draw 3's block is diag(1 / sig_J), and its eigenpairs stay as eigh
    # returns them; every other draw moves its H-direction eigenvector
    # last, zeroes it and repeats the last eigenvalue there
    dinv2 = 1.0 / model.signal_eigs[model.signal_eigs > 0.0]
    m_want, evec_want = np.linalg.eigh(np.diag(dinv2))
    np.testing.assert_allclose(m[:, 3], m_want, rtol=1e-14)
    np.testing.assert_allclose(evec[..., 3], evec_want, rtol=0, atol=1e-14)
    rolled = np.arange(len(draws)) != 3
    np.testing.assert_array_equal(evec[:, -1, rolled], 0.0)
    np.testing.assert_array_equal(m[-1, rolled], m[-2, rolled])
    np.testing.assert_allclose(np.linalg.norm(evec[:, :-1, rolled], axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.einsum("icb,ib->cb", evec, hhat)[:, rolled], 0.0, atol=1e-12)
    for j, draw in enumerate(draws):
        alone = _ao_reduce(model, [draw], default_radius(model))
        for key, arr in alone.red.items():
            want = arr[..., 0]
            np.testing.assert_allclose(
                batch.red[key][..., j], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=key
            )
        for key, arr in alone.cert.items():
            np.testing.assert_allclose(batch.cert[key][j], arr[0], rtol=1e-12, err_msg=key)
        np.testing.assert_array_equal(batch.red["nodes"][:, j], alone.red["nodes"][:, 0])
        prep, prep_alone = _ao_prepare(batch, j), _ao_prepare(alone, 0)
        assert (prep.top, prep.top_g) == (prep_alone.top, prep_alone.top_g)
        assert prep.starts_feasible == prep_alone.starts_feasible


# ----------------------------------------------------------- window slope


def window_at(model, draws, node, **changes):
    """_ao_phi's terms for the draws at their node-th nu node, laid out as
    _ao_window_min lays them out: draws (B, 1) against positions (1, K).
    changes replaces reduced arrays (components first, draws last)."""
    batch = _ao_reduce(model, draws, default_radius(model))
    red = {**batch.red, **changes}
    return _ao_at_nu({k: red[k] for k in cgmt_lab._PHI_KEYS}, red["nodes"][node][:, None])


def assert_slope_matches(at, g, h=1e-5):
    # at h = 1e-5 the central difference meets the slope to about 1e-6 on
    # these draws, its truncation and rounding errors together
    _, slope = _ao_phi(at, g, slope=True)
    central = (_ao_phi(at, g + h) - _ao_phi(at, g - h)) / (2.0 * h)
    np.testing.assert_allclose(slope, central, rtol=1e-5)


INTERIOR = np.array([[0.07, 0.23, 0.5, 0.81, 0.96]])


@pytest.mark.parametrize("p, n", [(4, 3), (20, 5)])
def test_window_slope_matches_central_differences(p, n):
    model = slice_model(p)
    draws = [draw_instance(model, n, np.random.default_rng([17, rep])) for rep in range(12)]
    checked = 0
    for node in (8, 20, 40):
        phi, slope = _ao_phi(window_at(model, draws, node), INTERIOR, slope=True)
        open_ = np.isfinite(phi[:, 0])
        # a closed window has no slope
        np.testing.assert_array_equal(slope[~open_], 0.0)
        if open_.any():
            assert_slope_matches(window_at(model, list(compress(draws, open_)), node), INTERIOR)
        checked += int(open_.sum())
    assert checked >= 12


def test_window_slope_hard_case_sphere():
    # with gam[0] = 0 at every position, the wider spheres of these windows
    # take the hard case, lam = -m[0], and the narrower ones do not
    model = slice_model(20)
    draws = [draw_instance(model, 5, np.random.default_rng([19, rep])) for rep in range(4)]
    batch = _ao_reduce(model, draws, default_radius(model))
    g1, g0 = batch.red["g1"].copy(), batch.red["g0"].copy()
    g1[0], g0[0] = 0.0, 0.0
    at = window_at(model, draws, 30, g1=g1, g0=g0)
    g = np.linspace(0.02, 0.98, 25)[None]
    rho = at["width"] * np.cos(0.5 * math.pi * g) / at["hn_div"]
    s = np.sqrt(np.maximum(at["nu"] ** 2 - rho**2, 0.0))
    _, lam = _sphere_min(at["m"], s * at["g1"] + at["g0"], rho)
    hard = lam == -at["m"][0]
    assert hard.any(axis=1).all() and not hard.all(axis=1).any()
    assert_slope_matches(at, g)


def test_window_slope_is_zero_where_phi_ignores_the_position():
    # with H_J = 0, u has no direction along H, and with one signal
    # coordinate (slice_model(2)) it has no room off H: phi is flat in g.
    # With H_J = 0 the window is open only where P_perp c = 0, so the draw's
    # P_perp c is zeroed by hand
    model = slice_model(20)
    draw = draw_instance(model, 5, np.random.default_rng([23, 0]))
    no_h = dataclasses.replace(draw, H=np.where(model.signal_eigs > 0.0, 0.0, draw.H))
    zero = np.zeros((5, 1))
    flat = slice_model(2)
    flat_draw = draw_instance(flat, 2, np.random.default_rng(1))
    g = np.array([[0.0, 0.3, 0.7, 1.0]])
    for at in (window_at(model, [no_h], 20, pc=zero, pg=zero), window_at(flat, [flat_draw], -1)):
        phi, slope = _ao_phi(at, g, slope=True)
        assert np.isfinite(phi).all()
        np.testing.assert_array_equal(phi, np.broadcast_to(phi[:, :1], phi.shape))
        np.testing.assert_array_equal(slope, 0.0)


@pytest.mark.parametrize("p, n", [(4, 3), (20, 5)])
def test_window_slope_ends_are_one_sided_limits(p, n):
    # at g = 0 and g = 1 a factor of the chain rule vanishes while another
    # grows without bound (1/mu as tau -> 0, lam as rho -> 0); the slope
    # takes their product's limit, so it is continuous up to the ends and
    # is the one-sided derivative there.  L's part at g = 0 is
    # -2 |alpha / sv^2| W pi/2, and the slope at g = 1 is pi W |gam| / |H_J|
    model = slice_model(p)
    draws = [draw_instance(model, n, np.random.default_rng([29, rep])) for rep in range(12)]
    at = window_at(model, draws, 20)
    ends = np.array([[0.0, 1e-9, 1.0 - 1e-9, 1.0]])
    phi, slope = _ao_phi(at, ends, slope=True)
    open_ = np.isfinite(phi[:, 0])
    assert open_.sum() >= 6
    np.testing.assert_allclose(slope[open_, 0], slope[open_, 1], rtol=1e-6)
    np.testing.assert_allclose(slope[open_, 3], slope[open_, 2], rtol=1e-6)
    assert (slope[open_, 3] >= 0.0).all() and (slope[open_, 3] > 0.0).any()
    assert (slope[open_, 0] != 0.0).all()


# ---------------------------------------------------------- window search


def window_searches(monkeypatch, solve):
    """(r, nu) of every window search that solve() makes."""
    seen, search = [], cgmt_lab._ao_window_min

    def spy(r, nu):
        seen.append((r, nu))
        return search(r, nu)

    with monkeypatch.context() as patch:
        patch.setattr(cgmt_lab, "_ao_window_min", spy)
        solve()
    return seen


def climb_windows(monkeypatch, model, n, seed, reps):
    job = (model, n, seed, range(reps), default_radius(model))
    return window_searches(monkeypatch, lambda: _tail_chunk(job))


def test_window_search_never_above_golden_reference(monkeypatch):
    # the slope search against the golden section it replaced, per draw
    # and nu: never higher by more than 1e-12 relative, also where the
    # grid's best node is an end of the window
    # draw 6 of the seed-1 tail-check pin, alone
    model = slice_model(4)
    pin_draw = draw_instance(model, 3, np.random.default_rng([1, 6]))
    windows = window_searches(
        monkeypatch, lambda: _solve_ao_draws(model, [pin_draw], default_radius(model))
    )
    for seed in range(4):
        windows += climb_windows(monkeypatch, slice_model(4), 3, seed, 64)
        windows += climb_windows(monkeypatch, slice_model(20), 5, seed, 32)
    count = at_end = 0
    for r, nu in windows:
        phi, g = _ao_window_min(r, nu)
        ref, _ = golden_window_min(r, nu)
        open_ = np.isfinite(ref)
        np.testing.assert_array_equal(np.isfinite(phi), open_)
        assert (phi[open_] <= ref[open_] + 1e-12 * np.abs(ref[open_])).all()
        # the position returned attains the value returned
        again = _ao_phi(_ao_at_nu(r, nu[:, None]), g[:, None])[:, 0]
        np.testing.assert_array_equal(again[open_], phi[open_])
        grid = _ao_phi(_ao_at_nu(r, nu[:, None]), _T_GRID[None])
        end = np.isin(grid.argmin(axis=1), (0, _T_GRID.size - 1)) & open_
        at_end += int(end.sum())
        count += int(open_.sum())
    assert count >= 2000
    assert at_end >= 10


def test_window_search_step_count_is_fixed(monkeypatch):
    # every window search makes the grid call and _SLOPE_STEPS single-
    # position calls, whatever its draws: the whole batch and each of its
    # draws alone take the same count
    counts = []
    phi = cgmt_lab._ao_phi

    def counting(*args, **kwargs):
        counts[-1] += 1
        return phi(*args, **kwargs)

    windows = climb_windows(monkeypatch, slice_model(4), 3, 0, 256)
    assert len({nu.size for _, nu in windows}) > 1
    monkeypatch.setattr(cgmt_lab, "_ao_phi", counting)
    for r, nu in windows:
        for cols in [slice(None)] + [slice(j, j + 1) for j in range(min(nu.size, 8))]:
            counts.append(0)
            _ao_window_min({k: v[..., cols] for k, v in r.items()}, nu[cols])
    assert set(counts) == {1 + _SLOPE_STEPS}
