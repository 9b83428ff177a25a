import numpy as np
import pytest

from ridgeless_iv.cgmt_lab import slice_model
from ridgeless_iv.covariance import CovarianceModel, assemble_model
from ridgeless_iv.harness import setup_model
from ridgeless_iv.sampling import InfiniteVariance, sample_dataset


def small_model(p=6, rho_scale=0.4, noise_sd=1.5, k=3):
    eigs = np.array([4.0, 3.0, 2.5, 2.0, 1.0, 0.5])[:p]
    endo = np.zeros(p)
    endo[:k] = eigs[:k]
    cov = CovarianceModel(
        p=p, endo_eigs=endo, signal_eigs=eigs - endo, trunc_level=k, split_kind="orthogonal"
    )
    w = np.zeros(p)
    w[:k] = rho_scale / np.arange(1, k + 1)
    theta = 1.0 / np.sqrt(np.arange(1, p + 1))
    return assemble_model(cov, theta, whitened_cross=w, noise_sd=noise_sd)


def identity_model(p, noise_sd=1.0):
    """Exogenous model with identity covariance: X is the instrument factor."""
    cov = CovarianceModel(
        p=p, endo_eigs=np.zeros(p), signal_eigs=np.ones(p), trunc_level=0, split_kind="orthogonal"
    )
    return assemble_model(cov, np.zeros(p), noise_sd=noise_sd)


def test_exogenous_special_case():
    p = 4
    model = identity_model(p, noise_sd=2.0)
    data = sample_dataset(model, 50_000, seed=42)
    assert np.abs(np.cov(data.X.T) - np.eye(p)).max() <= 5.0 * np.sqrt(2.0 / 50_000)
    cross = data.X.T @ data.xi / data.X.shape[0]
    assert np.abs(cross).max() <= 5.0 * 2.0 / np.sqrt(50_000)
    assert abs(data.xi.var() - 4.0) <= 3.0 * 4.0 * np.sqrt(2.0 / 50_000)


def test_moment_match_endogenous():
    model = small_model()
    n = 100_000
    data = sample_dataset(model, n, seed=7)
    total = np.diag(model.cov.total_eigs)
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
    cov = model.cov
    k = data.W2.shape[1]
    rebuilt = data.W1 * np.sqrt(cov.signal_eigs)
    rebuilt[:, :k] += data.W2 * np.sqrt(cov.endo_eigs[:k])
    assert np.abs(rebuilt - data.X).max() <= 1e-12


@pytest.mark.parametrize("which", ["slice", "ii"])
def test_latent_factor_drawn_on_support_only(which):
    model = slice_model(4) if which == "slice" else setup_model("ii", 400)[0]
    n = 7
    k = int(np.flatnonzero(model.cov.endo_eigs)[-1]) + 1
    assert k < model.p
    data = sample_dataset(model, n, seed=3)
    assert data.W2.shape == (n, k)
    # past the latent block the design is the scaled instrument factor, bit for bit
    tail = data.W1[:, k:] * np.sqrt(model.cov.signal_eigs[k:])
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
