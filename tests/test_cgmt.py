"""Worst-case interpolation error lab: the exact primary-side solver, the
lower-bound comparison solver, and the tail dominance check between them."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

from ridgeless_iv.cgmt_lab import (
    NoFeasiblePoint,
    PoInstance,
    ao_grid_value,
    draw_instance,
    max_projected_error,
    slice_model,
    solve_ao,
    solve_po,
    tail_dominance_check,
)
from ridgeless_iv.estimators import min_norm_interpolator
from ridgeless_iv.metrics import projected_rmse
from ridgeless_iv.sampling import sample_dataset

AO_THETA0 = np.array([0.3, -0.2])
AO_SIGNAL = np.array([1.0, 0.0])
AO_ENDO = np.array([0.0, 4.0])

# trial seeds where both the solver and the 2-D grid reference find feasible
# points, and ones where both report an empty feasible set
COMPARABLE_TRIALS = (1, 5, 11, 14, 15, 16)
EMPTY_TRIALS = (0, 2, 3, 4)


def ao_instance(trial):
    rng = np.random.default_rng(trial + 100)
    w1 = rng.standard_normal((2, 2))
    w2 = rng.standard_normal((2, 2))
    xi = rng.standard_normal(2) * 2.0
    big_g = rng.standard_normal(2)
    big_h = rng.standard_normal(2)
    inst = PoInstance(
        W1=w1, W2=w2, xi=xi, ball_radius=2.5, theta0=AO_THETA0,
        signal_eigs=AO_SIGNAL, endo_eigs=AO_ENDO,
    )
    return inst, big_g, big_h


# ------------------------------------------------------------- primary side


def test_po_exact_for_determined_system():
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((3, 3))
    xi = rng.standard_normal(3)
    unique = np.linalg.solve(w1, xi)
    inst = PoInstance(
        W1=w1, W2=np.zeros((3, 3)), xi=xi,
        ball_radius=float(np.linalg.norm(unique)) + 0.5,
        theta0=np.zeros(3), signal_eigs=np.ones(3), endo_eigs=np.zeros(3),
    )
    value, sol = solve_po(inst, details=True)
    assert value == pytest.approx(float(unique @ unique), rel=1e-10)
    assert sol.null_dim == 0
    np.testing.assert_allclose(sol.theta_prime, unique, rtol=1e-9)


def test_po_infeasible_when_ball_misses_unique_solution():
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((3, 3))
    xi = rng.standard_normal(3)
    unique = np.linalg.solve(w1, xi)
    inst = PoInstance(
        W1=w1, W2=np.zeros((3, 3)), xi=xi,
        ball_radius=0.9 * float(np.linalg.norm(unique)),
        theta0=np.zeros(3), signal_eigs=np.ones(3), endo_eigs=np.zeros(3),
    )
    with pytest.raises(NoFeasiblePoint):
        solve_po(inst)


def test_po_single_row_hand_geometry():
    # one equation in the plane: the feasible set is a chord of the ball and
    # the quadratic is maximized at one of the two endpoints
    m = np.array([[1.0, 2.0]])
    xi = np.array([1.2])
    theta0 = np.array([0.5, -0.1])
    radius = 2.0
    inst = PoInstance(
        W1=m, W2=np.zeros((1, 2)), xi=xi, ball_radius=radius,
        theta0=theta0, signal_eigs=np.ones(2), endo_eigs=np.zeros(2),
    )
    c = float(xi[0] + m[0] @ theta0)
    mv = m[0]
    closest = mv * c / float(mv @ mv)
    along = np.array([-mv[1], mv[0]]) / float(np.linalg.norm(mv))
    half = math.sqrt(radius**2 - float(closest @ closest))
    ends = (closest + half * along, closest - half * along)
    expect = max(float((e - theta0) @ (e - theta0)) for e in ends)
    assert solve_po(inst) == pytest.approx(expect, rel=1e-9)


def test_po_grid_reference_one_free_dimension():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        design = rng.standard_normal((2, 3))
        xi = rng.standard_normal(2)
        # random positive diagonal: column sums of squared Gaussians
        sig = (rng.standard_normal((3, 3)) ** 2).sum(axis=0)
        theta0 = rng.standard_normal(3) * 0.3
        radius = 3.0
        value, sol = max_projected_error(design, xi, radius, theta0, sig, details=True)
        assert sol.null_dim == 1

        part, *_ = np.linalg.lstsq(design, xi, rcond=None)
        null = scipy.linalg.null_space(design)[:, 0]
        d = part + theta0
        b = 2.0 * float(null @ d)
        c = float(d @ d) - radius**2
        disc = b * b - 4.0 * c
        assert disc > 0
        t = np.linspace((-b - math.sqrt(disc)) / 2, (-b + math.sqrt(disc)) / 2, 20001)
        pts = part[None, :] + t[:, None] * null[None, :]
        ref = float(np.einsum("ij,j,ij->i", pts, sig, pts).max())
        assert value == pytest.approx(ref, rel=1e-3)


def test_po_certificate_stationarity():
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        n = 2 + seed % 2
        sig = (rng.standard_normal((4, 4)) ** 2).sum(axis=0)
        endo = (rng.standard_normal((4, 2)) ** 2).sum(axis=1)
        inst = PoInstance(
            W1=rng.standard_normal((n, 4)),
            W2=rng.standard_normal((n, 4)),
            xi=rng.standard_normal(n),
            ball_radius=4.0,
            theta0=rng.standard_normal(4) * 0.2,
            signal_eigs=sig,
            endo_eigs=endo,
        )
        _, sol = solve_po(inst, details=True)
        assert sol.stationarity_residual <= 1e-8
        if sol.null_dim:
            assert sol.multiplier >= -1e-12


def test_po_dominates_interpolator_projection():
    # the min-norm interpolant is feasible for the maximization, so its
    # signal-weighted error can never exceed the reported optimum
    model = slice_model(4)
    sig = model.cov.signal_eigs
    for seed in range(5):
        data = sample_dataset(model, 3, seed)
        fit = min_norm_interpolator(data.X, data.Y)
        radius = max(fit.norm_l2, float(np.linalg.norm(model.true_coef))) + 1.0
        value = max_projected_error(data.X, data.xi, radius, model.true_coef, sig)
        direct = projected_rmse(fit.theta_hat, model.true_coef, sig)
        assert value >= direct - 1e-8 * max(1.0, direct)


def test_drawn_instance_matches_sampled_dataset():
    # same seed, same factor stream: the surrogate instance rebuilds the
    # sampled design bit for bit (the same elementwise products)
    for model in (slice_model(4), slice_model(6, 2)):
        for seed in (0, 7, 42):
            inst, _, _ = draw_instance(model, 5, np.random.default_rng(seed))
            data = sample_dataset(model, 5, seed)
            np.testing.assert_array_equal(inst.design(), data.X)
            np.testing.assert_array_equal(inst.xi, data.xi)


def test_po_distribution_matches_sampled_route():
    # independent streams through the sampler and through the surrogate
    # factors must give the same law of the maximum
    model = slice_model(4)
    sig = model.cov.signal_eigs
    radius = float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)
    reps = 10_000
    direct = np.empty(reps)
    for r in range(reps):
        data = sample_dataset(model, 3, 111_000 + r)
        direct[r] = max_projected_error(data.X, data.xi, radius, model.true_coef, sig)
    surrogate = np.empty(reps)
    for r in range(reps):
        inst, _, _ = draw_instance(model, 3, np.random.default_rng(222_000 + r))
        surrogate[r] = solve_po(inst)
    ks = ks_2samp(direct, surrogate).statistic
    assert ks <= 0.05


# ---------------------------------------------------------- comparison side


def test_ao_grid_reference_two_dims():
    for trial in COMPARABLE_TRIALS:
        inst, big_g, big_h = ao_instance(trial)
        value, sol = solve_ao(inst, big_g, big_h, seed=trial, details=True)
        assert not sol.feasible_empty
        assert sol.starts_feasible > 0
        ref = ao_grid_value(inst, big_g, big_h, points_per_axis=2001)
        assert ref is not None
        assert abs(value - ref) <= 1e-2 * max(1.0, ref)


def test_ao_and_grid_agree_on_empty():
    for trial in EMPTY_TRIALS:
        inst, big_g, big_h = ao_instance(trial)
        value, sol = solve_ao(inst, big_g, big_h, seed=trial, details=True)
        assert ao_grid_value(inst, big_g, big_h) is None
        assert sol.feasible_empty
        assert value == 0.0


def test_ao_zero_signal_probe_exact():
    # the signal-orthogonal direction reproduces xi exactly, and the cone
    # inner product is pinned to zero, so {(0, 0.7)} is the whole feasible set
    inst = PoInstance(
        W1=np.zeros((2, 2)), W2=np.eye(2), xi=np.array([0.0, 0.7]),
        ball_radius=2.0, theta0=np.array([0.1, 0.0]),
        signal_eigs=np.array([1.0, 0.0]), endo_eigs=np.array([0.0, 1.0]),
    )
    value, sol = solve_ao(inst, np.array([1.3, -0.4]), np.array([0.0, 0.9]), details=True)
    assert value == 0.0
    assert not sol.feasible_empty
    np.testing.assert_allclose(sol.point, [0.0, 0.7], atol=1e-9)


def test_ao_zero_signal_probe_infeasible():
    # first residual coordinate cannot be matched by any admissible scale,
    # so no point satisfies the cone and the flag must report it
    inst = PoInstance(
        W1=np.zeros((2, 2)), W2=np.eye(2), xi=np.array([-0.5, 0.7]),
        ball_radius=2.0, theta0=np.array([0.1, 0.0]),
        signal_eigs=np.array([1.0, 0.0]), endo_eigs=np.array([0.0, 1.0]),
    )
    value, sol = solve_ao(inst, np.array([1.3, -0.4]), np.array([0.0, 0.9]), details=True)
    assert value == 0.0
    assert sol.feasible_empty
    assert sol.point is None
    assert sol.starts_feasible == 0


def test_ao_deterministic_under_fixed_seed():
    inst, big_g, big_h = ao_instance(11)
    assert solve_ao(inst, big_g, big_h, seed=9) == solve_ao(inst, big_g, big_h, seed=9)


def test_ao_rejects_mismatched_gaussians():
    inst, big_g, big_h = ao_instance(1)
    with pytest.raises(ValueError):
        solve_ao(inst, big_g[:1], big_h)
    with pytest.raises(ValueError):
        solve_ao(inst, big_g, big_h[:1])


def test_grid_reference_rejects_high_dimension():
    model = slice_model(4)
    inst, big_g, big_h = draw_instance(model, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ao_grid_value(inst, big_g, big_h)


# ------------------------------------------------------- instances and slice


def test_instance_validation():
    rng = np.random.default_rng(0)
    kw = dict(
        W1=rng.standard_normal((3, 2)),
        W2=rng.standard_normal((3, 2)),
        xi=rng.standard_normal(3),
        ball_radius=5.0,
        theta0=np.array([1.0, 2.0]),
        signal_eigs=np.ones(2),
        endo_eigs=np.ones(2),
    )
    inst = PoInstance(**kw)
    assert (inst.n, inst.p) == (3, 2)
    assert inst.design().shape == (3, 2)
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "W2": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "xi": np.zeros(2)})
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "theta0": np.zeros(3)})
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "endo_eigs": np.ones(3)})
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "signal_eigs": np.eye(2)})
    # a negative or non-finite diagonal entry has no square root
    for bad in (-1e-3, np.nan, np.inf):
        for key in ("signal_eigs", "endo_eigs"):
            with pytest.raises(ValueError):
                PoInstance(**{**kw, key: np.array([1.0, bad])})
    with pytest.raises(ValueError):
        PoInstance(**{**kw, "ball_radius": 1.0})


def test_slice_model_structure():
    model = slice_model(6, endo_count=2)
    cov = model.cov
    assert cov.p == 6
    assert cov.trunc_level == 2
    idx = np.arange(1.0, 7.0)
    eigs = 300.0 / idx / (np.log(idx + 1.0) * math.e / 2.0) ** 2
    np.testing.assert_allclose(cov.endo_eigs[:2], eigs[:2])
    assert np.all(cov.endo_eigs[2:] == 0.0)
    np.testing.assert_allclose(cov.signal_eigs + cov.endo_eigs, eigs)
    np.testing.assert_allclose(model.true_coef, 20.0 / np.sqrt(idx))
    np.testing.assert_allclose(model.whitened_cross[:2], 2.0 / idx[:2])
    assert np.all(model.whitened_cross[2:] == 0.0)
    with pytest.raises(ValueError):
        slice_model(1)
    with pytest.raises(ValueError):
        slice_model(4, endo_count=0)
    with pytest.raises(ValueError):
        slice_model(4, endo_count=4)


def test_draw_instance_shapes_and_default_radius():
    model = slice_model(4)
    inst, big_g, big_h = draw_instance(model, 5, np.random.default_rng(1))
    assert inst.W1.shape == (5, 4)
    assert inst.W2.shape == (5, 4)
    assert big_g.shape == (5,)
    assert big_h.shape == (4,)
    expect = float(np.linalg.norm(model.true_coef)) + 50.0 * math.sqrt(model.noise_var)
    assert inst.ball_radius == pytest.approx(expect)
    inst2, _, _ = draw_instance(model, 5, np.random.default_rng(1), ball_radius=40.0)
    assert inst2.ball_radius == 40.0


# ------------------------------------------------------------- tail check


def test_tail_degenerate_threshold():
    model = slice_model(4)
    report = tail_dominance_check(model, 3, 24, c_grid=[-1.0], seed=0)
    assert report.violations == 0
    assert report.p_phi_gt[0] == 1.0
    assert report.p_phi_ao_ge[0] == 1.0
    row = report.rows()[0]
    assert row["c"] == -1.0
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
    # the batched climb inside the tail check and solve_ao on one draw must
    # agree draw by draw: same prepare seed (seed, r, 1), same incumbent
    model = slice_model(4)
    report = tail_dominance_check(model, n=3, reps=64, seed=7, max_workers=1)
    empties = 0
    for r in range(64):
        inst, big_g, big_h = draw_instance(model, 3, np.random.default_rng([7, r]))
        value, sol = solve_ao(inst, big_g, big_h, seed=(7, r, 1), details=True)
        assert abs(value - report.phi_ao[r]) <= 1e-12 * abs(report.phi_ao[r])
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
    0.06747392146156929, 1638814.255357309, 1638533.260820039, 1917213.242811859,
    1938094.2788448874, 1586794.3471793486, 1713542.423001261, 1966757.6010538037,
    1594603.6945490392, 1966882.398860431, 0.0, 1638814.249797125,
    0.0, 1549505.970449925, 1638814.253056566, 1509314.7820850692,
    3.6261780372379535, 0.8345630536714637, 0.0, 4157.809044487838,
    1714044.0044894482, 36.97335001478277, 0.0, 1966882.4027056312,
    0.0, 0.0, 970194.4389612153, 25907.723519158393,
    1394448.8615104232, 0.0, 1966882.4029385408, 1692270.2909909976,
]


def test_tail_check_values_pinned():
    report = tail_dominance_check(slice_model(4), n=3, reps=32, seed=1, max_workers=1)
    np.testing.assert_allclose(report.phi_po, PINNED_PHI_PO, rtol=1e-9, atol=0)
    np.testing.assert_allclose(report.phi_ao, PINNED_PHI_AO, rtol=1e-9, atol=0)
    assert report.flags == {"po_infeasible": 0, "ao_feasible_empty": 7}


def test_tail_rejects_zero_reps():
    with pytest.raises(ValueError):
        tail_dominance_check(slice_model(4), 3, 0)
