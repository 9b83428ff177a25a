"""Worst-case interpolation error lab: the exact primary-side solver, the
scalarized comparison solver, and the tail dominance check between them."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

from references import max_projected_error_one
from ridgeless_iv import cgmt_lab
from ridgeless_iv.cgmt_lab import (
    NoFeasiblePoint,
    TailDraw,
    _PoBatch,
    _cone_gap,
    _po_batch,
    _row_norm,
    _signal_energy,
    draw_instance,
    max_projected_error,
    slice_model,
    solve_ao,
    solve_po,
    tail_dominance_check,
)
from ridgeless_iv.covariance import EndogenousModel, split_eigs
from ridgeless_iv.estimators import min_norm_interpolator
from ridgeless_iv.harness import setup_model
from ridgeless_iv.metrics import projected_rmse
from ridgeless_iv.sampling import factor_design, sample_dataset

AO_THETA0 = np.array([0.3, -0.2])
AO_SIGNAL = np.array([1.0, 0.0])
AO_ENDO = np.array([0.0, 4.0])
AO_MODEL = EndogenousModel.build(AO_SIGNAL, AO_ENDO, AO_THETA0)
AO_RADIUS = 2.5

# trial seeds where both the solver and the 2-D grid reference find feasible
# points, and ones where both report an empty feasible set
COMPARABLE_TRIALS = (1, 5, 11, 14, 15, 16)
EMPTY_TRIALS = (0, 2, 3, 4)


def ao_grid_value(model, draw, radius, points_per_axis=401, slack=1e-6):
    """Brute-force reference for the comparison optimum, free dimension <= 3.

    Evaluates the cone and ball constraints on a regular grid over the
    coefficient ball and returns the best feasible objective, or None when
    no grid point is feasible.  Grid points rarely sit exactly on the cone
    surface, so membership allows a small positive slack.
    """
    p = model.p
    if p > 3:
        raise ValueError("grid reference limited to p <= 3")
    sig = model.signal_eigs
    sig_root = np.sqrt(sig)
    w2s = draw.W2 * np.sqrt(model.endo_eigs[: draw.W2.shape[1]])
    axes = [np.linspace(-radius, radius, points_per_axis)] * p
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[_row_norm(pts) <= radius] - model.true_coef
    gap = _cone_gap(pts, sig_root, w2s, draw.G, sig_root * draw.H, draw.xi)
    feasible = gap <= slack
    if not feasible.any():
        return None
    return float(_signal_energy(pts[feasible], sig).max())


def ao_instance(trial):
    rng = np.random.default_rng(trial + 100)
    w1 = rng.standard_normal((2, 2))
    w2 = rng.standard_normal((2, 2))
    xi = rng.standard_normal(2) * 2.0
    big_g = rng.standard_normal(2)
    big_h = rng.standard_normal(2)
    return TailDraw(W1=w1, W2=w2, xi=xi, G=big_g, H=big_h)


def default_radius(model):
    """tail_dominance_check's default ball radius, |theta0| + 50 sigma."""
    return float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)


def slice_with(p, k):
    """slice_model(p) with the top k coordinates latent instead of p // 2:
    the same spectrum, coefficients and whitened endogeneity 2/i."""
    base = slice_model(p)
    endo, sig = split_eigs(base.total_eigs, k)
    return EndogenousModel.build(sig, endo, base.true_coef, 2.0 / np.arange(1.0, p + 1))


def po_draw(w1, w2, xi):
    """A draw for the primary side alone, which never reads G and H."""
    n, p = w1.shape
    return TailDraw(W1=w1, W2=w2, xi=xi, G=np.zeros(n), H=np.zeros(p))


def design(model, draw):
    return factor_design(draw.W1, draw.W2, model.signal_eigs, model.endo_eigs)


# ------------------------------------------------------------- primary side


def test_po_exact_for_determined_system():
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((3, 3))
    xi = rng.standard_normal(3)
    unique = np.linalg.solve(w1, xi)
    model = EndogenousModel.build(np.ones(3), np.zeros(3), np.zeros(3))
    sol = solve_po(model, po_draw(w1, np.zeros((3, 0)), xi), float(np.linalg.norm(unique)) + 0.5)
    assert sol.value == pytest.approx(float(unique @ unique), rel=1e-10)
    assert sol.null_dim == 0
    np.testing.assert_allclose(sol.theta_prime, unique, rtol=1e-9)


def test_po_infeasible_when_ball_misses_unique_solution():
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((3, 3))
    xi = rng.standard_normal(3)
    unique = np.linalg.solve(w1, xi)
    model = EndogenousModel.build(np.ones(3), np.zeros(3), np.zeros(3))
    with pytest.raises(NoFeasiblePoint):
        solve_po(model, po_draw(w1, np.zeros((3, 0)), xi), 0.9 * float(np.linalg.norm(unique)))


def chord(design, xi, radius, theta0):
    """Min-norm particular solution, unit null direction and the ends of the
    t interval where part + t null lies in the ball shifted by -theta0, for
    a design with a one-dimensional null space."""
    part, *_ = np.linalg.lstsq(design, xi, rcond=None)
    null = scipy.linalg.null_space(design)[:, 0]
    d = part + theta0
    b = 2.0 * float(null @ d)
    c = float(d @ d) - radius**2
    disc = b * b - 4.0 * c
    assert disc > 0
    return part, null, (-b - math.sqrt(disc)) / 2, (-b + math.sqrt(disc)) / 2


def test_po_single_row_hand_geometry():
    # one equation in the plane: the feasible set is a chord of the ball and
    # the quadratic is maximized at one of the two endpoints
    m = np.array([[1.0, 2.0]])
    xi = np.array([1.2])
    theta0 = np.array([0.5, -0.1])
    radius = 2.0
    model = EndogenousModel.build(np.ones(2), np.zeros(2), theta0)
    c = float(xi[0] + m[0] @ theta0)
    mv = m[0]
    closest = mv * c / float(mv @ mv)
    along = np.array([-mv[1], mv[0]]) / float(np.linalg.norm(mv))
    half = math.sqrt(radius**2 - float(closest @ closest))
    ends = (closest + half * along, closest - half * along)
    expect = max(float((e - theta0) @ (e - theta0)) for e in ends)
    assert solve_po(model, po_draw(m, np.zeros((1, 0)), xi), radius).value == pytest.approx(
        expect, rel=1e-9
    )

    # criterion-10 draws (three rows, four coordinates) are chords too; the
    # closed form holds the solver to working precision, including draws 476
    # and 9380, which a multiplier solved to a loose tolerance misses by up
    # to 3e-10
    model = slice_model(4)
    sig, radius = model.signal_eigs, default_radius(model)
    for r in (*range(200), 476, 9380):
        draw = draw_instance(model, 3, np.random.default_rng([0, r]))
        part, null, lo, hi = chord(design(model, draw), draw.xi, radius, model.true_coef)
        expect = max(float((part + t * null) @ (sig * (part + t * null))) for t in (lo, hi))
        assert solve_po(model, draw, radius).value == pytest.approx(expect, rel=1e-12, abs=0), r


def test_po_grid_reference_one_free_dimension():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        design = rng.standard_normal((2, 3))
        xi = rng.standard_normal(2)
        # random positive diagonal: column sums of squared Gaussians
        sig = (rng.standard_normal((3, 3)) ** 2).sum(axis=0)
        theta0 = rng.standard_normal(3) * 0.3
        radius = 3.0
        sol = max_projected_error(design, xi, radius, theta0, sig)
        assert sol.null_dim == 1

        part, null, lo, hi = chord(design, xi, radius, theta0)
        t = np.linspace(lo, hi, 20001)
        pts = part[None, :] + t[:, None] * null[None, :]
        ref = float(np.einsum("ij,j,ij->i", pts, sig, pts).max())
        assert sol.value == pytest.approx(ref, rel=1e-3)


def test_po_certificate_stationarity():
    # KKT for maximizing theta' S theta' on the slice {design theta' = xi,
    # |theta' + theta0| <= R}: on the null space of the design, S theta' is
    # mu (theta' + theta0) with mu >= 0, and the ball is active
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        n = 2 + seed % 2
        sig = (rng.standard_normal((4, 4)) ** 2).sum(axis=0)
        endo = (rng.standard_normal((4, 2)) ** 2).sum(axis=1)
        draw = po_draw(
            rng.standard_normal((n, 4)), rng.standard_normal((n, 4)), rng.standard_normal(n)
        )
        model = EndogenousModel.build(sig, endo, rng.standard_normal(4) * 0.2)
        sol = solve_po(model, draw, 4.0)
        null = scipy.linalg.null_space(design(model, draw))
        assert null.shape[1] == sol.null_dim == 4 - n
        grad = null.T @ (sig * sol.theta_prime)
        normal = null.T @ (sol.theta_prime + model.true_coef)
        mu = float(normal @ grad) / float(normal @ normal)
        resid = float(np.linalg.norm(grad - mu * normal)) / max(1.0, float(np.linalg.norm(grad)))
        assert resid <= 1e-8
        assert mu >= -1e-12
        assert np.linalg.norm(sol.theta_prime + model.true_coef) == pytest.approx(4.0, rel=1e-12)


def test_po_dominates_interpolator_projection():
    # the min-norm interpolant is feasible for the maximization, so its
    # signal-weighted error can never exceed the reported optimum
    model = slice_model(4)
    sig = model.signal_eigs
    for seed in range(5):
        data = sample_dataset(model, 3, seed)
        fit = min_norm_interpolator(data.X, data.Y)
        radius = max(fit.norm_l2, float(np.linalg.norm(model.true_coef))) + 1.0
        value = max_projected_error(data.X, data.xi, radius, model.true_coef, sig).value
        direct = projected_rmse(fit.theta_hat, model.true_coef, sig)
        assert value >= direct - 1e-8 * max(1.0, direct)


def test_drawn_instance_matches_sampled_dataset():
    # same seed, same factor stream: the surrogate instance rebuilds the
    # sampled design bit for bit (the same elementwise products); setup i
    # at n = 10 has p = 50 columns and a latent block on fewer of them
    for model, n in ((slice_model(4), 5), (slice_with(6, 2), 5), (setup_model("i", 10), 10)):
        for seed in (0, 7, 42):
            draw = draw_instance(model, n, np.random.default_rng(seed))
            data = sample_dataset(model, n, seed)
            assert not data.compressed
            np.testing.assert_array_equal(draw.W2, data.W2)
            np.testing.assert_array_equal(design(model, draw), data.X)
            np.testing.assert_array_equal(draw.xi, data.xi)


def test_po_distribution_matches_sampled_route():
    # independent streams through the sampler and through the surrogate
    # factors must give the same law of the maximum
    model = slice_model(4)
    sig = model.signal_eigs
    radius = default_radius(model)
    reps = 10_000
    direct = np.empty(reps)
    for r in range(reps):
        data = sample_dataset(model, 3, 111_000 + r)
        direct[r] = max_projected_error(data.X, data.xi, radius, model.true_coef, sig).value
    surrogate = np.empty(reps)
    for r in range(reps):
        draw = draw_instance(model, 3, np.random.default_rng(222_000 + r))
        surrogate[r] = solve_po(model, draw, radius).value
    ks = ks_2samp(direct, surrogate).statistic
    assert ks <= 0.05


def po_outcome(solve):
    """A primary solve's PoSolution, or its NoFeasiblePoint message."""
    try:
        return solve()
    except NoFeasiblePoint as err:
        return str(err)


def check_against_one_draw_reference(batch):
    """Each row of a stacked primary batch against the one-design reference:
    the same infeasible rows with the same messages, the same null
    dimensions, values within 1e-14 relative.  Returns the rows' outcomes."""
    rows = []
    for j, (x, xi) in enumerate(zip(batch.designs, batch.xi)):
        got = po_outcome(lambda: batch.row(j))
        want = po_outcome(
            lambda: max_projected_error_one(x, xi, batch.radius, batch.theta0, batch.sig)
        )
        if isinstance(want, str):
            assert got == want, j
        else:
            assert got.null_dim == want.null_dim, j
            assert abs(got.value - want.value) <= 1e-14 * abs(want.value), j
        rows.append(got)
    return rows


def test_stacked_primary_matches_one_draw_reference():
    # a 256-draw slice-model chunk of criterion 10 (seed 0) that holds its
    # one infeasible draw, 9732, and 64-draw chunks of setups ii and i
    model = slice_model(4)
    radius = default_radius(model)
    draws = [draw_instance(model, 3, np.random.default_rng([0, r])) for r in range(9728, 9984)]
    batch = _po_batch(model, draws, radius)
    rows = check_against_one_draw_reference(batch)
    assert [j for j, row in enumerate(rows) if isinstance(row, str)] == [9732 - 9728]
    # solve_po on one draw alone gives the bytes of its row in the chunk;
    # with 8 or more null-space components that holds to 1e-14 only, since
    # numpy sums a lone column of them pairwise and a chunk's row by row
    for j in range(0, 256, 5):
        alone = po_outcome(lambda: solve_po(model, draws[j], radius))
        if isinstance(rows[j], str):
            assert alone == rows[j]
        else:
            assert alone.value == rows[j].value
            np.testing.assert_array_equal(alone.theta_prime, rows[j].theta_prime)
    for name, n in (("ii", 10), ("i", 20)):
        model = setup_model(name, n)
        draws = [draw_instance(model, n, np.random.default_rng([3, r])) for r in range(64)]
        rows = check_against_one_draw_reference(_po_batch(model, draws, default_radius(model)))
        assert {row.null_dim for row in rows} == {model.p - n}


def test_stacked_primary_edge_designs(monkeypatch):
    # square designs of one batch, two ranks: full rank (null dimension 0),
    # and a repeated row (rank 2 < n), each with a feasible row and every
    # cause of an empty feasible set
    rng = np.random.default_rng(41)
    theta0, sig = np.array([0.3, -0.2, 0.1]), np.array([2.0, 1.0, 0.5])
    full = rng.standard_normal((3, 3))
    twin = rng.standard_normal((3, 3))
    twin[2] = twin[0]
    near = rng.standard_normal(2) * 0.3
    designs = np.stack([full, full, twin, twin, twin])
    xi = np.stack([
        full @ np.array([0.2, 0.1, -0.3]),
        full @ np.array([20.0, 0.0, 0.0]),
        np.append(near, near[0]),
        np.append(near, near[0] + 1.0),
        twin @ np.array([30.0, -30.0, 30.0]),
    ])
    batch = _PoBatch(designs, xi, 3.0, theta0, sig)
    rows = check_against_one_draw_reference(batch)
    assert [row.null_dim for row in rows if not isinstance(row, str)] == [0, 1]
    assert rows[1] == "unique interpolant falls outside the ball"
    assert rows[3].startswith("linear system inconsistent, residual ")
    assert rows[4] == "coefficient ball misses the solution set"
    # each design alone, and blocks of two designs (the memory bound), keep
    # each row's outcome
    monkeypatch.setattr(cgmt_lab, "_PO_ENTRIES", 2 * 9)
    blocked = _PoBatch(designs, xi, 3.0, theta0, sig)
    for j, row in enumerate(rows):
        for again in (
            po_outcome(lambda: max_projected_error(designs[j], xi[j], 3.0, theta0, sig)),
            po_outcome(lambda: blocked.row(j)),
        ):
            assert again == row if isinstance(row, str) else again.value == row.value

    # the sphere's hard case: with xi = 0 and theta0 = 0 the linear term
    # vanishes, so the optimum is R^2 times the top eigenvalue of the
    # signal form on the null space; it shares a batch with ordinary rows
    designs = rng.standard_normal((4, 2, 4))
    xi = rng.standard_normal((4, 2))
    xi[1] = 0.0
    sig = np.array([3.0, 1.0, 0.5, 0.25])
    batch = _PoBatch(designs, xi, 2.0, np.zeros(4), sig)
    rows = check_against_one_draw_reference(batch)
    null = scipy.linalg.null_space(designs[1])
    top = np.linalg.eigvalsh(null.T @ (sig[:, None] * null))[-1]
    assert rows[1].value == pytest.approx(4.0 * top, rel=1e-13)
    assert np.linalg.norm(rows[1].theta_prime) == pytest.approx(2.0, rel=1e-13)


# ---------------------------------------------------------- comparison side


def test_ao_grid_reference_two_dims():
    for trial in COMPARABLE_TRIALS:
        draw = ao_instance(trial)
        sol = solve_ao(AO_MODEL, draw, AO_RADIUS)
        assert not sol.feasible_empty
        assert sol.starts_feasible > 0
        ref = ao_grid_value(AO_MODEL, draw, AO_RADIUS, points_per_axis=2001)
        assert ref is not None
        assert abs(sol.value - ref) <= 1e-2 * max(1.0, ref)


def test_ao_and_grid_agree_on_empty():
    for trial in EMPTY_TRIALS:
        draw = ao_instance(trial)
        sol = solve_ao(AO_MODEL, draw, AO_RADIUS)
        assert ao_grid_value(AO_MODEL, draw, AO_RADIUS) is None
        assert sol.feasible_empty
        assert sol.value == 0.0


def test_ao_zero_signal_probe_exact():
    # the signal-orthogonal direction reproduces xi exactly, and the cone
    # inner product is pinned to zero, so {(0, 0.7)} is the whole feasible set
    model = EndogenousModel.build(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.1, 0.0]))
    draw = TailDraw(
        W1=np.zeros((2, 2)), W2=np.eye(2), xi=np.array([0.0, 0.7]),
        G=np.array([1.3, -0.4]), H=np.array([0.0, 0.9]),
    )
    sol = solve_ao(model, draw, 2.0)
    assert sol.value == 0.0
    assert not sol.feasible_empty
    np.testing.assert_allclose(sol.point, [0.0, 0.7], atol=1e-9)


def test_ao_zero_signal_probe_infeasible():
    # first residual coordinate cannot be matched by any admissible scale,
    # so no point satisfies the cone and the flag must report it
    model = EndogenousModel.build(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.1, 0.0]))
    draw = TailDraw(
        W1=np.zeros((2, 2)), W2=np.eye(2), xi=np.array([-0.5, 0.7]),
        G=np.array([1.3, -0.4]), H=np.array([0.0, 0.9]),
    )
    sol = solve_ao(model, draw, 2.0)
    assert sol.value == 0.0
    assert sol.feasible_empty
    assert sol.point is None
    assert sol.starts_feasible == 0


def test_ao_deterministic_under_fixed_seed():
    # the solver draws no random numbers: one instance, one answer
    draw = ao_instance(11)
    assert solve_ao(AO_MODEL, draw, AO_RADIUS).value == solve_ao(AO_MODEL, draw, AO_RADIUS).value


def _ao_checks(model, draw, radius, x):
    """Cone gap and ball slack of rows of x (<= 0 means satisfied)."""
    sig_root = np.sqrt(model.signal_eigs)
    w2s = draw.W2 * np.sqrt(model.endo_eigs[: draw.W2.shape[1]])
    gap = _cone_gap(x, sig_root, w2s, draw.G, sig_root * draw.H, draw.xi)
    return gap, np.linalg.norm(x + model.true_coef, axis=-1) - radius


@pytest.mark.parametrize("p, k", [(6, 2), (5, 1)])
def test_ao_beats_random_search_in_four_signal_dims(p, k):
    # four signal coordinates, beyond the grid reference: no point of a
    # seeded search (uniform over the ball, and perturbations of the
    # reported point at scales 1e-6..1e-1 of the radius) that satisfies the
    # exact cone and the ball has a larger objective
    model = slice_with(p, k)
    sig = model.signal_eigs
    radius = default_radius(model)
    feasible = 0
    for seed in range(4):
        draw = draw_instance(model, 3, np.random.default_rng([p, seed]))
        sol = solve_ao(model, draw, radius)
        rng = np.random.default_rng([p, seed, 1])
        dirs = rng.standard_normal((100_000, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = [dirs * radius * rng.uniform(0, 1, (dirs.shape[0], 1)) ** (1 / p) - model.true_coef]
        if not sol.feasible_empty:
            feasible += 1
            gap, slack = _ao_checks(model, draw, radius, sol.point[None])
            assert gap[0] <= 1e-9 * (1 + np.linalg.norm(draw.xi)) and slack[0] <= 1e-12 * radius
            assert sol.value == pytest.approx(float(sol.point @ (sig * sol.point)), rel=1e-12)
            scales = radius * 10.0 ** rng.uniform(-6, -1, (dirs.shape[0], 1))
            pts.append(sol.point + dirs[rng.permutation(dirs.shape[0])] * scales)
        pts = np.vstack(pts)
        gap, slack = _ao_checks(model, draw, radius, pts)
        ok = (gap <= 0) & (slack <= 0)
        found = np.einsum("ij,j,ij->i", pts[ok], sig, pts[ok])
        assert found.size == 0 or found.max() <= sol.value * (1 + 1e-9)
    assert feasible >= 2


def test_ao_closed_form_when_ball_inactive():
    # with n=3 and two latent columns P_perp has rank one; for this draw the
    # window |P_perp(xi - nu G)| <= nu |H_J| is a bounded interval that the
    # large ball does not cut, so the optimum is its upper end, the larger
    # root of (|P_perp G|^2 - |H_J|^2) nu^2 - 2 <P_perp xi, P_perp G> nu +
    # |P_perp xi|^2 = 0
    model = slice_model(4)
    draw = draw_instance(model, 3, np.random.default_rng(8))
    sig_j = model.signal_eigs > 0
    a_mat = draw.W2 * np.sqrt(model.endo_eigs[: draw.W2.shape[1]])

    def perp(v):
        return v - a_mat @ np.linalg.lstsq(a_mat, v, rcond=None)[0]

    px, pg = perp(draw.xi), perp(draw.G)
    a2 = pg @ pg - draw.H[sig_j] @ draw.H[sig_j]
    assert a2 > 0 and px @ pg > 0
    root = (px @ pg + math.sqrt((px @ pg) ** 2 - (px @ px) * a2)) / a2
    sol = solve_ao(model, draw, 1e4)
    assert sol.value == pytest.approx(root**2, rel=1e-7)
    _, slack = _ao_checks(model, draw, 1e4, sol.point[None])
    assert slack[0] < -0.5 * 1e4


def test_ao_rejects_mismatched_gaussians():
    draw = ao_instance(1)
    with pytest.raises(ValueError):
        solve_ao(AO_MODEL, dataclasses.replace(draw, G=draw.G[:1]), AO_RADIUS)
    with pytest.raises(ValueError):
        solve_ao(AO_MODEL, dataclasses.replace(draw, H=draw.H[:1]), AO_RADIUS)


def test_grid_reference_rejects_high_dimension():
    model = slice_model(4)
    draw = draw_instance(model, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ao_grid_value(model, draw, default_radius(model))


# ------------------------------------------------------- instances and slice


def test_instance_validation():
    # a draw holds only its factors: the model checks its own vectors, the
    # primary solver refuses a draw whose shapes do not fit the model, and
    # it checks its own arguments
    rng = np.random.default_rng(0)
    draw = po_draw(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), rng.standard_normal(3))
    theta0, ones = np.array([1.0, 2.0]), np.ones(2)
    model = EndogenousModel.build(ones, ones, theta0)
    assert design(model, draw).shape == (3, 2)
    # a negative or non-finite diagonal entry has no square root
    for bad in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError):
            EndogenousModel.build(np.array([1.0, bad]), ones, theta0)
        with pytest.raises(ValueError):
            EndogenousModel.build(ones, np.array([1.0, bad]), theta0)
    for wrong in (
        dataclasses.replace(draw, W2=np.zeros((2, 2))),
        dataclasses.replace(draw, W1=np.zeros((3, 3))),
        dataclasses.replace(draw, xi=np.zeros(2)),
    ):
        with pytest.raises(ValueError):
            solve_po(model, wrong, 5.0)
    # the primary solver checks its own arguments: a non-finite design or
    # xi, or a mis-shaped xi or theta0, never reaches the SVD
    x = design(model, draw)
    args = (x, x @ np.array([0.1, 0.1]), 5.0, theta0, ones)
    assert max_projected_error(*args).value == pytest.approx(0.02)
    for pos, bad in (
        (0, np.where(np.eye(3, 2) > 0, np.nan, x)),
        (0, np.where(np.eye(3, 2) > 0, np.inf, x)),
        (0, x[0]),
        (1, np.array([np.nan, 0.0, 0.0])),
        (1, np.zeros(2)),
        (3, np.zeros(3)),
        (4, np.ones(3)),
    ):
        with pytest.raises(ValueError, match="must be"):
            max_projected_error(*args[:pos], bad, *args[pos + 1:])


def test_slice_model_structure():
    # the top p // 2 = 3 coordinates are latent
    model = slice_model(7)
    assert model.p == 7
    assert model.endo_rank() == 3
    idx = np.arange(1.0, 8.0)
    eigs = 300.0 / idx / (np.log(idx + 1.0) * math.e / 2.0) ** 2
    np.testing.assert_allclose(model.endo_eigs[:3], eigs[:3])
    assert np.all(model.endo_eigs[3:] == 0.0)
    np.testing.assert_allclose(model.signal_eigs + model.endo_eigs, eigs)
    np.testing.assert_allclose(model.true_coef, 20.0 / np.sqrt(idx))
    np.testing.assert_allclose(model.whitened_cross[:3], 2.0 / idx[:3])
    assert np.all(model.whitened_cross[3:] == 0.0)
    with pytest.raises(ValueError):
        slice_model(1)


def test_draw_instance_shapes_and_default_radius(monkeypatch):
    model = slice_model(4)
    draw = draw_instance(model, 5, np.random.default_rng(1))
    assert draw.W1.shape == (5, 4)
    assert draw.W2.shape == (5, 2)  # the latent support, as draw_factors gives it
    assert draw.G.shape == (5,)
    assert draw.H.shape == (4,)
    # the check passes every block the one ball radius, |theta0| + 50 sigma
    radii = []

    def record(args):
        radii.append(args[-1])
        return np.zeros(len(args[3])), np.zeros(len(args[3])), 0, 0

    monkeypatch.setattr(cgmt_lab, "_tail_chunk", record)
    tail_dominance_check(model, 5, 300, max_workers=1)
    expect = float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)
    assert radii == [pytest.approx(expect)] * 2


# ------------------------------------------------------------- tail check


def test_tail_degenerate_threshold(monkeypatch):
    # every optimum ties at 1.0, so every quantile threshold is 1.0: the
    # primary tail counts values strictly above it (none), the comparison
    # tail values at or above it (all), and no threshold is a violation
    def tied(args):
        count = len(args[3])
        return np.ones(count), np.ones(count), 0, 0

    monkeypatch.setattr(cgmt_lab, "_tail_chunk", tied)
    report = tail_dominance_check(slice_model(4), 3, 24, seed=0, grid_size=3)
    np.testing.assert_array_equal(report.c_grid, np.ones(3))
    np.testing.assert_array_equal(report.p_phi_gt, np.zeros(3))
    np.testing.assert_array_equal(report.p_phi_ao_ge, np.ones(3))
    assert report.violations == 0
    row = report.rows()[0]
    assert row["c"] == 1.0
    assert row["violation"] is False


def test_tail_small_rep_slack():
    report = tail_dominance_check(slice_model(4), 3, 10, seed=0)
    assert report.reps == 10
    assert len(report.c_grid) == 20
    assert report.violations == 0


def test_tail_report_layout():
    report = tail_dominance_check(slice_model(4), 3, 40, seed=0, grid_size=8)
    assert report.phi_po.shape == (40,)
    assert report.phi_ao.shape == (40,)
    assert len(report.c_grid) == 8
    assert set(report.flags) == {"po_infeasible", "ao_feasible_empty"}
    rows = report.rows()
    assert len(rows) == 8
    keys = {"c", "p_phi_gt", "p_phi_ao_ge", "stderr_po", "stderr_ao", "violation"}
    assert all(set(r) == keys for r in rows)
    assert report.violations == 0


def test_tail_identical_across_worker_counts():
    model = slice_model(4)
    serial = tail_dominance_check(model, 3, 300, seed=7, max_workers=1)
    pooled = tail_dominance_check(model, 3, 300, seed=7, max_workers=2)
    np.testing.assert_array_equal(serial.phi_po, pooled.phi_po)
    np.testing.assert_array_equal(serial.phi_ao, pooled.phi_ao)
    assert serial.violations == pooled.violations
    assert serial.flags == pooled.flags


def test_tail_chunk_matches_single_instance_solver():
    # the batched refinement inside the tail check and solve_ao on one draw
    # must agree draw by draw
    model = slice_model(4)
    report = tail_dominance_check(model, n=3, reps=64, seed=7, max_workers=1)
    empties = 0
    radius = default_radius(model)
    for r in range(64):
        sol = solve_ao(model, draw_instance(model, 3, np.random.default_rng([7, r])), radius)
        assert abs(sol.value - report.phi_ao[r]) <= 1e-12 * abs(report.phi_ao[r])
        if sol.feasible_empty:
            empties += 1
            assert report.phi_ao[r] == 0.0
    assert empties == report.flags["ao_feasible_empty"]


# phi_po and phi_ao of tail_dominance_check(slice_model(4), n=3, reps=32,
# seed=1, max_workers=1), pinned so that a rewrite of the lab cannot move
# them silently
PINNED_PHI_PO = [
    1739465.0829143578, 1014661.9561910189, 1542534.561102371, 397627.05825965013,
    1118579.2082553776, 1414665.4537593746, 4988.065452687069, 1343160.4641304873,
    1639063.026855847, 1490604.8722870196, 676258.7353875154, 856070.2702730681,
    1174315.8562216558, 1592696.086479997, 1535906.9024426006, 318830.220612068,
    999395.4071746225, 1027736.6348985881, 876540.818219562, 750093.1884380961,
    1026183.1334353813, 1149387.793127379, 334768.8655854684, 1568339.4964361638,
    1074869.4651399367, 1349577.2734290753, 1059256.3499106923, 771107.0722073497,
    1321927.5559764332, 700767.5430119135, 1099938.8357771696, 1498680.003102318,
]
PINNED_PHI_AO = [
    0.06747455040242262, 1638814.2597516098, 1638636.4494481015, 1928224.0344944482,
    1938096.0152515194, 1589827.19016706, 1713542.461891951, 1966760.0762847376,
    1599231.258936045, 1966882.4055641184, 0.0, 1638814.2597516489,
    0.4212474298609856, 1549527.9389969853, 1638814.2597516396, 1514823.3169459037,
    3.6261786989062563, 0.8366543720146761, 0.0, 4157.812158439545,
    1714261.494114044, 36.98202970530234, 0.0, 1966882.405564239,
    0.0, 0.0, 970293.0433974686, 36062.47531940395,
    1397242.777887895, 0.0, 1966882.4055641808, 1692846.536760715,
]


def test_tail_check_values_pinned():
    report = tail_dominance_check(slice_model(4), n=3, reps=32, seed=1, max_workers=1)
    np.testing.assert_allclose(report.phi_po, PINNED_PHI_PO, rtol=1e-9, atol=0)
    np.testing.assert_allclose(report.phi_ao, PINNED_PHI_AO, rtol=1e-9, atol=0)
    assert report.flags == {"po_infeasible": 0, "ao_feasible_empty": 6}


def test_tail_rejects_zero_reps(monkeypatch):
    # every argument is checked before the first block of draws is solved
    def unreachable(args):
        raise AssertionError("a draw was solved before the arguments were checked")

    monkeypatch.setattr(cgmt_lab, "_tail_chunk", unreachable)
    with pytest.raises(ValueError):
        tail_dominance_check(slice_model(4), 3, 0)
    # no rows per instance, or no threshold, checks nothing
    with pytest.raises(ValueError):
        tail_dominance_check(slice_model(4), 0, 4)
    with pytest.raises(ValueError):
        tail_dominance_check(slice_model(4), 3, 4, grid_size=0)


def test_tail_default_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to one CPU solves its blocks serially, whatever the
    # host's CPU count
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cgmt_lab.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cgmt_lab.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cgmt_lab, "ProcessPoolExecutor", no_pool)
    report = tail_dominance_check(slice_model(4), 3, 257, seed=0)
    assert report.phi_po.shape == (257,)


def test_ao_batch_rejects_draws_of_another_model(monkeypatch):
    # a draw of another shape is refused when the batch is stacked, before
    # any draw is scanned
    model = slice_model(4)
    radius = default_radius(model)
    draws = [draw_instance(model, 3, np.random.default_rng([3, r])) for r in range(3)]
    draw = draws[1]

    def unreachable(*args):
        raise AssertionError("a draw was scanned before the batch was checked")

    monkeypatch.setattr(cgmt_lab, "_ao_prepare", unreachable)
    wider = draw_instance(model, 4, np.random.default_rng([3, 1]))
    for other in (wider, dataclasses.replace(draw, G=draw.G[:2]), dataclasses.replace(draw, H=draw.H[:3])):
        with pytest.raises(ValueError):
            cgmt_lab._solve_ao_draws(model, [draws[0], other, draws[2]], radius)


def test_ao_rejects_overlapping_supports():
    model = EndogenousModel.build(AO_SIGNAL, np.array([0.5, 4.0]), AO_THETA0)
    with pytest.raises(ValueError):
        solve_ao(model, ao_instance(1), AO_RADIUS)
