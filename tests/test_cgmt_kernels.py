"""The batched Newton kernels of the comparison solver against per-point
scalar references, the broadcast node scan against the flattened one, and
the batched reduction of a chunk's draws against each draw reduced alone.

The kernels take their component axis first.  A sum over a first axis adds
the components in order, while numpy sums a last axis in another order
(einsum from 3 components, the pairwise sum from 8), so results may differ
from a last-axis layout in the last bit; the scalar references are compared
with tolerances for that reason.
"""

import dataclasses
import math

import numpy as np
import pytest

from ridgeless_iv import cgmt_lab
from ridgeless_iv.cgmt_lab import (
    _T_GRID,
    _ao_at_nu,
    _ao_phi,
    _ao_prepare,
    _ao_reduce,
    _sphere_min,
    _tikhonov,
    draw_instance,
    slice_model,
)

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
    w = _sphere_min(m, gam, rho)
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
    w = _sphere_min(m, gam, rho)[:, 0]
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
    w = _sphere_min(m, gam, np.float64(1.5))
    assert w.shape == (3,)
    np.testing.assert_allclose(w, sphere_reference(m, gam, 1.5), rtol=1e-8, atol=1e-12)


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
