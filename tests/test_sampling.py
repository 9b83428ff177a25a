import numpy as np
import pytest

from ridgeless_iv.cgmt_lab import slice_model
from ridgeless_iv.covariance import EndogenousModel
from ridgeless_iv.estimators import min_norm_interpolator
from ridgeless_iv.harness import repetition_seed, setup_model
from ridgeless_iv.metrics import projected_rmse
from ridgeless_iv.sampling import InfiniteVariance, _sample, sample_dataset


def small_model(p=6, rho_scale=0.4, noise_sd=1.5, k=3):
    eigs = np.array([4.0, 3.0, 2.5, 2.0, 1.0, 0.5])[:p]
    endo = np.zeros(p)
    endo[:k] = eigs[:k]
    w = np.zeros(p)
    w[:k] = rho_scale / np.arange(1, k + 1)
    theta = 1.0 / np.sqrt(np.arange(1, p + 1))
    return EndogenousModel.build(eigs - endo, endo, theta, w, noise_sd)


def flat_tail_model(p=12, k=2):
    """Signal diagonal flat (0.5) from index 3 on, latent block on the first k."""
    sig = np.r_[4.0, 3.0, 2.0, np.full(p - 3, 0.5)]
    endo = np.zeros(p)
    endo[:k] = 1.0
    i = np.arange(1, p + 1, dtype=float)
    w = np.zeros(p)
    w[:k] = 0.4 / i[:k]
    return EndogenousModel.build(sig, endo, 1.0 / np.sqrt(i), w, 1.5)


def identity_model(p, noise_sd=1.0):
    """Exogenous model with identity covariance: X is the instrument factor."""
    return EndogenousModel.build(np.ones(p), np.zeros(p), np.zeros(p), noise_sd=noise_sd)


def test_exogenous_special_case():
    p = 4
    model = identity_model(p, noise_sd=2.0)
    data = sample_dataset(model, 50_000, seed=42)
    centered = data.X - data.X.mean(axis=0)
    sample_cov = centered.T @ centered / (data.X.shape[0] - 1)
    assert np.abs(sample_cov - np.eye(p)).max() <= 5.0 * np.sqrt(2.0 / 50_000)
    cross = data.X.T @ data.xi / data.X.shape[0]
    assert np.abs(cross).max() <= 5.0 * 2.0 / np.sqrt(50_000)
    assert abs(data.xi.var() - 4.0) <= 3.0 * 4.0 * np.sqrt(2.0 / 50_000)


def test_moment_match_endogenous():
    model = small_model()
    n = 100_000
    data = sample_dataset(model, n, seed=7)
    total = np.diag(model.total_eigs)
    emp = data.X.T @ data.X / n
    se = np.sqrt((np.outer(np.diag(total), np.diag(total)) + total**2) / n)
    assert np.all(np.abs(emp - total) <= 5.0 * se + 1e-12)
    # covariate-error covariance matches the realized cross moment
    prods = data.X * data.xi[:, None]
    emp_cross = prods.mean(axis=0)
    se_cross = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(emp_cross - model.cross_cov) <= 5.0 * se_cross)
    # error variance matches declared total noise variance
    s2 = model.noise_var
    assert abs(data.xi.var() - s2) <= 3.0 * s2 * np.sqrt(2.0 / n)


def test_response_identity_exact():
    model = small_model()
    data = sample_dataset(model, 200, seed=3)
    assert np.array_equal(data.Y, data.X @ model.true_coef + data.xi)


def test_seed_determinism():
    model = small_model()
    a = sample_dataset(model, 64, seed=11)
    b = sample_dataset(model, 64, seed=11)
    for field in ("X", "Y", "xi", "W1", "W2"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    c = sample_dataset(model, 64, seed=12)
    assert not np.array_equal(a.X, c.X)


def test_mvt_variance_match():
    data = sample_dataset(identity_model(3), 100_000, seed=1, instrument_dist="student_t", dof=5.0)
    v = data.W1.var(axis=0)
    assert np.all((v > 0.97) & (v < 1.03))


def test_mvt_gaussian_limit_kurtosis():
    data = sample_dataset(identity_model(2), 200_000, seed=2, instrument_dist="student_t", dof=1e6)
    x = data.W1
    k = ((x - x.mean(0)) ** 4).mean(0) / x.var(0) ** 2
    assert np.all(np.abs(k - 3.0) < 0.15)


def test_mvt_rejects_small_dof():
    with pytest.raises(InfiniteVariance):
        sample_dataset(identity_model(2), 10, seed=0, instrument_dist="student_t", dof=2.0)
    with pytest.raises(InfiniteVariance):
        sample_dataset(small_model(), 10, seed=0, instrument_dist="student_t", dof=1.5)


def test_student_instrument_keeps_moments():
    model = small_model()
    n = 100_000
    data = sample_dataset(model, n, seed=5, instrument_dist="student_t", dof=5.0)
    prods = data.X * data.xi[:, None]
    se_cross = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(prods.mean(axis=0) - model.cross_cov) <= 5.0 * se_cross)
    # instrument factor is heavy-tailed: t_5 normalized kurtosis is 9
    k = (data.W1**4).mean(axis=0) / data.W1.var(axis=0) ** 2
    assert np.all(k > 4.0)
    # the latent-noise factor stays Gaussian
    k2 = (data.W2**4).mean(axis=0) / data.W2.var(axis=0) ** 2
    assert np.all(np.abs(k2 - 3.0) < 0.3)


def test_factor_representation_consistency():
    model = small_model()
    data = sample_dataset(model, 100, seed=9)
    k = data.W2.shape[1]
    rebuilt = data.W1 * np.sqrt(model.signal_eigs)
    rebuilt[:, :k] += data.W2 * np.sqrt(model.endo_eigs[:k])
    assert np.abs(rebuilt - data.X).max() <= 1e-12


@pytest.mark.parametrize("which", ["slice", "ii"])
def test_latent_factor_drawn_on_support_only(which):
    model = slice_model(4) if which == "slice" else setup_model("ii", 400)
    n = 7
    k = int(np.flatnonzero(model.endo_eigs)[-1]) + 1
    assert k < model.p
    data = sample_dataset(model, n, seed=3)
    assert data.W2.shape == (n, k)
    # past the latent block the design is the scaled instrument factor, bit
    # for bit, in the sample's own columns (setup ii is drawn compressed)
    tail = data.W1[:, k:] * np.sqrt(data.signal_eigs[k:])
    assert data.X[:, k:].tobytes() == tail.tobytes()


def test_exogenous_model_draws_no_latent_factor():
    data = sample_dataset(identity_model(3), 4, seed=0)
    assert data.W2.shape == (4, 0)
    assert np.array_equal(data.X, data.W1)


def test_random_stream_pinned():
    # raw generator output, no BLAS involved: a change to the draw order or
    # shapes of the sampler changes these values and has to be declared
    data = sample_dataset(slice_model(4), 5, seed=2024)
    np.testing.assert_array_equal(
        data.W1[0],
        [1.0288568739519013, 1.6419200406711503, 1.1467195295966137, -0.9731795154745656],
    )
    np.testing.assert_array_equal(
        data.W2[:2].ravel(),
        [0.9030630777436289, -1.4805813250203528, -0.5340928297145819, 0.16378857220098098],
    )


def test_compressed_random_stream_pinned():
    # a flat tail of 9 >= n + 1 columns past the latent block: the sample
    # is [head, z, Bartlett factor], m + 1 + n columns
    model = flat_tail_model()
    data = sample_dataset(model, 5, seed=2024)
    assert data.X.shape == data.W1.shape == (5, 3 + 1 + 5)
    np.testing.assert_array_equal(
        data.W1[0],
        [1.0288568739519013, 1.6419200406711503, 1.1467195295966137, 0.05681919548353432,
         3.2765734736958727, 0.0, 0.0, 0.0, 0.0],
    )
    np.testing.assert_array_equal(
        data.W1[4],
        [-1.1077170351272676, 1.4844055856837017, 0.048912403069534136, -0.6636760694670103,
         -1.3886836827516753, -2.0981967905109227, 0.6343009414440183, -1.1652663772886236,
         2.847142287748935],
    )
    np.testing.assert_array_equal(data.W2[0], [0.8115201169815576, -1.3764228399745688])


@pytest.mark.parametrize("dof", [None, 5.0])
def test_compressed_draw_order(dof):
    # the documented order: W_H, W2, scalar noise, z, Bartlett normals row
    # by row, Bartlett chi-squares, [t mixing]; the mixing scales whole rows
    model = flat_tail_model()
    n, m, k = 5, 3, 2
    law = ("gaussian", None) if dof is None else ("student_t", dof)
    data = sample_dataset(model, n, 77, *law)
    rng = np.random.default_rng(77)
    head = rng.standard_normal((n, m))
    w2 = rng.standard_normal((n, k))
    g = rng.standard_normal(n)
    z = rng.standard_normal(n)
    lower = np.zeros((n, n))
    lower[np.tril_indices(n, -1)] = rng.standard_normal(n * (n - 1) // 2)
    lower[np.diag_indices(n)] = np.sqrt(rng.chisquare(model.p - m - 1 - np.arange(n)))
    scale = np.ones(n) if dof is None else np.sqrt((dof - 2.0) / rng.chisquare(dof, size=n))
    w1 = np.column_stack([head, z, lower]) * scale[:, None]
    np.testing.assert_array_equal(data.W1, w1)
    np.testing.assert_array_equal(data.W2, w2)
    xi = w2 @ model.whitened_cross[:k] + np.sqrt(model.resid_noise_var) * g
    np.testing.assert_array_equal(data.xi, xi)
    # the sample's own columns: metric [s_H, lam, lam 1_n], coefficient
    # [theta_H, |theta_T|, 0_n], and the factor form holds in them
    sig, theta = model.signal_eigs, model.true_coef
    np.testing.assert_array_equal(data.signal_eigs, np.r_[sig[:m], np.full(n + 1, 0.5)])
    np.testing.assert_array_equal(
        data.true_coef, np.r_[theta[:m], np.linalg.norm(theta[m:]), np.zeros(n)]
    )
    rebuilt = data.W1 * np.sqrt(data.signal_eigs)
    rebuilt[:, :k] += data.W2 * np.sqrt(model.endo_eigs[:k])
    np.testing.assert_array_equal(rebuilt, data.X)
    np.testing.assert_array_equal(data.Y, data.X @ data.true_coef + data.xi)
    assert data.compressed


def test_direct_route_without_room_for_the_tail():
    # p - m - 1 < n, or a latent block reaching into the flat tail, keeps
    # the model's own columns and the direct draws
    for model, n in ((flat_tail_model(), 9), (flat_tail_model(k=5), 5), (slice_model(4), 1)):
        data = sample_dataset(model, n, seed=5)
        assert data.X.shape == (n, model.p) and not data.compressed
        assert data.true_coef is model.true_coef
        assert data.signal_eigs is model.signal_eigs
        direct = _sample(model, n, 5, None, None)
        np.testing.assert_array_equal(data.X, direct.X)


def test_compressed_route_agrees_in_law_with_direct():
    # setup ii at n=100 (p=1000, flat from m=103): the fitted error and the
    # fit's norm have the same law on both routes
    model = setup_model("ii", 100)
    n, reps = 100, 300
    stats = {}
    for route in ("compressed", "direct"):
        vals = np.empty((reps, 2))
        for rep in range(reps):
            seed = repetition_seed(4817 if route == "compressed" else 4818, n, rep)
            if route == "compressed":
                data = sample_dataset(model, n, seed)
                assert data.compressed
            else:
                data = _sample(model, n, seed, None, None)  # the direct route
            fit = min_norm_interpolator(data.X, data.Y)
            vals[rep] = projected_rmse(fit.theta_hat, data.true_coef, data.signal_eigs), fit.norm_l2
        stats[route] = vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(reps)
    (mc, sc), (md, sd) = stats["compressed"], stats["direct"]
    z = np.abs(mc - md) / np.hypot(sc, sd)
    print(f"[compressed vs direct] means {mc} vs {md}, |z| {z}")
    assert np.all(z <= 4.0)


@pytest.mark.parametrize("dof", [None, 5.0])
def test_compressed_trailing_block_is_lower_triangular(dof):
    # min_norm_interpolator's structured QR needs the trailing n columns of
    # a compressed sample exactly lower triangular; the t mixing scales
    # whole rows and keeps it so
    law = ("gaussian", None) if dof is None else ("student_t", dof)
    cases = [(flat_tail_model(), 5)]
    cases += [(setup_model(sid, n), n) for sid in ("ii", "iv") for n in (24, 100, 400)]
    for model, n in cases:
        data = sample_dataset(model, n, repetition_seed(3, n, 0), *law)
        assert data.compressed and data.X.shape[1] > n
        block = data.X[:, -n:]
        assert not np.triu(block, 1).any()
        assert np.all(np.diag(block) > 0)


def test_latent_support_rules_differ_below_the_rank_cutoff():
    # setup ii at n = 1000 has latent eigenvalues below default_rank_tol(p)
    # times the largest: the pseudo-inverse's support drops them (44
    # columns), the draw keeps every positive one (67 columns of W2)
    model = setup_model("ii", 1000)
    assert model.endo_rank() == 44
    data = sample_dataset(model, 1000, seed=0)
    assert data.W2.shape == (1000, 67)
