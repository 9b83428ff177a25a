import math

import numpy as np
import pytest

from ridgeless_iv.covariance import (
    CovarianceModel,
    DimensionRule,
    EndogenousModel,
    ExpPlusNoiseSpectrum,
    LogPolySpectrum,
    assemble_model,
    build_covariance,
)
from ridgeless_iv.estimators import min_norm_interpolator
from ridgeless_iv.metrics import (
    DegenerateNoise,
    MissingSelector,
    ModelInconsistent,
    ZeroMatrix,
    cross_signal_energy,
    effective_ranks,
    eta_delta,
    evaluate_conditions,
    norm_effective_ranks,
    norm_upper_bound,
    pinv_cross_norm,
    projected_rmse,
    rmse_upper_bound,
    sigma_tilde2,
)
from ridgeless_iv.sampling import sample_dataset


def setup_i_model(n, split="orthogonal", alpha=None):
    prof = LogPolySpectrum(
        scale=300.0, beta=2.0, log_factor=math.e / 2, p_rule=DimensionRule("multiple", 5.0)
    )
    cov = build_covariance(prof, n, split_kind=split, alpha=alpha, rotation="pattern")
    idx = np.arange(1, cov.p + 1, dtype=float)
    return assemble_model(cov, 20.0 / np.sqrt(idx), whitened_cross=2.0 / idx)


def tiny_model(rho=0.5, noise_sd=1.0):
    """p=2 in the identity basis: latent block diag(1,0), signal diag(0,1)."""
    cov = CovarianceModel(
        p=2,
        endo_eigs=np.array([1.0, 0.0]),
        signal_eigs=np.array([0.0, 1.0]),
        trunc_level=1,
        split_kind="orthogonal",
    )
    return assemble_model(
        cov, np.zeros(2), cross_cov=np.array([rho, 0.0]), noise_sd=noise_sd
    )


# ----------------------------------------------------------- projected rmse


def test_projected_rmse_exact_recovery():
    theta = np.array([1.0, -2.0, 3.0])
    assert projected_rmse(theta, theta, np.ones(3)) == 0.0


def test_projected_rmse_identity_is_squared_error():
    rng = np.random.default_rng(0)
    theta, theta0 = rng.standard_normal(5), rng.standard_normal(5)
    got = projected_rmse(theta, theta0, np.ones(5))
    assert got == pytest.approx(float(np.sum((theta - theta0) ** 2)), rel=1e-14)


def test_projected_rmse_hand_value():
    assert projected_rmse(np.array([1.0, 1.0]), np.zeros(2), np.array([2.0, 3.0])) == 5.0


def test_projected_rmse_swap_symmetric_and_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        s = rng.uniform(0.0, 4.0, 4)
        assert projected_rmse(a, b, s) == pytest.approx(projected_rmse(b, a, s), rel=1e-12)
        assert projected_rmse(a, b, s) >= 0.0


def test_projected_rmse_rejects_dense_metric():
    # the metric is the signal diagonal; a p x p matrix or a wrong length
    # must not broadcast into the vector formula
    a, b = np.ones(3), np.zeros(3)
    with pytest.raises(ValueError):
        projected_rmse(a, b, np.eye(3))
    with pytest.raises(ValueError):
        projected_rmse(a, b, np.ones(4))


# ---------------------------------------------------------- effective ranks


def test_effective_ranks_identity():
    r, big_r = effective_ranks(np.eye(17))
    assert r == pytest.approx(17.0, rel=1e-14)
    assert big_r == pytest.approx(17.0, rel=1e-14)


def test_effective_ranks_hand_value():
    r, big_r = effective_ranks(np.diag([2.0, 1.0, 1.0]))
    assert r == pytest.approx(2.0, rel=1e-14)
    assert big_r == pytest.approx(16.0 / 6.0, rel=1e-14)


def test_effective_ranks_geometric_partial_sum_oracle():
    # trace and squared-trace sums accumulated independently by plain loops
    eigs = 0.5 ** np.arange(12)
    tr = sum(0.5**k for k in range(12))
    tr2 = sum(0.25**k for k in range(12))
    r, big_r = effective_ranks(eigs)
    assert r == pytest.approx(tr / 1.0, rel=1e-14)
    assert big_r == pytest.approx(tr * tr / tr2, rel=1e-14)


def test_effective_ranks_scale_invariant_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = rng.integers(2, 30)
        m = rng.standard_normal((dim, dim))
        s = m @ m.T
        r, big_r = effective_ranks(s)
        rc, big_rc = effective_ranks(295.3 * s)
        assert rc == pytest.approx(r, rel=1e-12)
        assert big_rc == pytest.approx(big_r, rel=1e-12)
        assert 1.0 <= big_r <= r * r * (1.0 + 1e-12)
        assert r >= 1.0


def test_effective_ranks_power_of_two_scale_exact():
    # powers of two scale eigenvalues without rounding, so the ratios cancel
    eigs = np.sort(np.random.default_rng(12).uniform(0.1, 5.0, 20))[::-1]
    assert effective_ranks(eigs) == effective_ranks(8.0 * eigs)


def test_effective_ranks_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        effective_ranks(np.zeros((3, 3)))


# ----------------------------------------------------- general-norm ranks


def test_l2_rank_identity_matches_chi_mean():
    est = norm_effective_ranks(np.eye(40), norm="l2", mc_samples=20_000, seed=5)
    assert est.projection_checked
    # (E|H|)^2 lives in [p-1, p]; allow Monte Carlo slack on both edges
    assert 39.0 - 3 * est.stderr_r <= est.r_norm <= 40.0 + 3 * est.stderr_r


def test_l2_rank_one_matrix_half_normal_oracle():
    sigma = np.zeros((3, 3))
    sigma[0, 0] = 1.0
    est = norm_effective_ranks(sigma, norm="l2", mc_samples=40_000, seed=9)
    assert abs(est.r_norm - 2.0 / math.pi) <= 3 * est.stderr_r
    assert abs(est.R_norm - 2.0 / math.pi) <= 3 * est.stderr_R


def test_l2_sandwich_between_scalar_ranks():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((12, 12))
    s = m @ m.T
    r, _ = effective_ranks(s)
    est = norm_effective_ranks(s, norm="l2", mc_samples=10_000, seed=2)
    assert r - 1.0 - 3 * est.stderr_r <= est.r_norm <= r + 3 * est.stderr_r


def test_norm_ranks_scale_invariance_same_seed():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((8, 8))
    s = m @ m.T
    a = norm_effective_ranks(s, norm="l2", mc_samples=2_000, seed=4)
    b = norm_effective_ranks(7.0 * s, norm="l2", mc_samples=2_000, seed=4)
    assert a.r_norm == pytest.approx(b.r_norm, rel=1e-10)
    assert a.R_norm == pytest.approx(b.R_norm, rel=1e-10)


def test_l1_rank_scalar_case_and_projection_flag():
    est = norm_effective_ranks(np.array([[1.0]]), norm="l1", mc_samples=40_000, seed=13)
    # in one dimension the sup-norm dual collapses to the scalar half-normal
    assert abs(est.r_norm - 2.0 / math.pi) <= 3 * est.stderr_r
    assert not est.projection_checked


def test_l1_rank_diagonal_finite():
    est = norm_effective_ranks(np.diag([4.0, 1.0, 0.25]), norm="l1", mc_samples=5_000, seed=1)
    assert np.isfinite(est.r_norm) and np.isfinite(est.R_norm)
    assert est.r_norm > 0 and est.R_norm > 0


def test_custom_norm_requires_all_pieces():
    with pytest.raises(MissingSelector):
        norm_effective_ranks(np.eye(3), norm="custom", dual_fn=np.linalg.norm)


def test_custom_norm_replicates_builtin_l2():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((5, 5))
    s = m @ m.T
    builtin = norm_effective_ranks(s, norm="l2", mc_samples=1_000, seed=8)
    lam = np.linalg.eigvalsh(s).max()
    custom = norm_effective_ranks(
        s,
        norm="custom",
        mc_samples=1_000,
        seed=8,
        dual_fn=np.linalg.norm,
        selector_fn=lambda y: y / np.linalg.norm(y),
        sup_weighted=math.sqrt(lam),
    )
    assert custom.r_norm == pytest.approx(builtin.r_norm, rel=1e-10)
    assert custom.R_norm == pytest.approx(builtin.R_norm, rel=1e-10)


def test_unknown_norm_rejected():
    with pytest.raises(ValueError):
        norm_effective_ranks(np.eye(2), norm="linf")


# -------------------------------------------------------- model functionals


def test_sigma_tilde2_exogenous_is_noise_var():
    cov = CovarianceModel(
        p=2,
        endo_eigs=np.array([1.0, 0.0]),
        signal_eigs=np.array([0.0, 1.0]),
        trunc_level=1,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(2), noise_sd=1.7)
    assert sigma_tilde2(model) == pytest.approx(1.7**2, rel=1e-14)


def test_sigma_tilde2_hand_value():
    assert sigma_tilde2(tiny_model(rho=0.5, noise_sd=1.0)) == pytest.approx(0.75, rel=1e-14)


def test_sigma_tilde2_matches_construction_identity():
    model = setup_i_model(200)
    expected = model.noise_var - float(model.whitened_cross @ model.whitened_cross)
    assert abs(sigma_tilde2(model) - expected) <= 1e-10
    assert sigma_tilde2(model) == pytest.approx(7.384979258727258, rel=1e-12)
    assert model.noise_var == pytest.approx(9.846639011636343, rel=1e-12)


def test_sigma_tilde2_rejects_inconsistent_model():
    good = tiny_model(rho=0.5, noise_sd=1.0)
    stale = EndogenousModel(
        cov=good.cov,
        true_coef=good.true_coef,
        cross_cov=good.cross_cov,
        whitened_cross=good.whitened_cross,
        noise_var=good.noise_var,
        resid_noise_var=0.9,  # disagrees with 1 - 0.25
    )
    with pytest.raises(ModelInconsistent):
        sigma_tilde2(stale)
    negative = EndogenousModel(
        cov=good.cov,
        true_coef=good.true_coef,
        cross_cov=good.cross_cov,
        whitened_cross=good.whitened_cross,
        noise_var=0.2,  # below the 0.25 explained energy
        resid_noise_var=0.0,
    )
    with pytest.raises(ModelInconsistent):
        sigma_tilde2(negative)


def test_pinv_cross_norm_and_energy_hand_values():
    # whitened rho = 0.5 at a unit eigenvalue: pinv norm 0.5, signal weight 0
    model = tiny_model(rho=0.5, noise_sd=1.0)
    assert pinv_cross_norm(model) == pytest.approx(0.5, rel=1e-14)
    assert cross_signal_energy(model) == 0.0
    assert pinv_cross_norm(setup_i_model(200)) == pytest.approx(
        2.909161260830201, rel=1e-12
    )


def test_eta_delta_plugin_identity_case():
    p = 16
    cov = CovarianceModel(
        p=p,
        endo_eigs=np.zeros(p),
        signal_eigs=np.ones(p),
        trunc_level=0,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(p), noise_sd=1.0)
    got = eta_delta(model, n=p, delta=1.0 / math.e)
    assert got == pytest.approx(1.0 / math.sqrt(p) + 1.0, rel=1e-14)


def test_eta_delta_regression_constant_and_monotone():
    model = setup_i_model(200)
    assert eta_delta(model, 200, 0.05) == pytest.approx(2.267995395594414, rel=1e-12)
    values = [eta_delta(model, 200, d) for d in (0.5, 0.1, 0.01)]
    assert values[0] < values[1] < values[2]
    with pytest.raises(ValueError):
        eta_delta(model, 200, 0.0)


# ------------------------------------------------------------------- bounds


def test_rmse_bound_degenerate_noise_hand_value():
    # explained energy equals the noise variance, so the subtracted term is 0
    model = tiny_model(rho=1.0, noise_sd=1.0)
    report = rmse_upper_bound(model, n=4, delta=1.0 / math.e, B=2.0)
    gamma = 32.0 * (1.0 + 0.5 + 0.5)
    assert report.gamma_delta == pytest.approx(gamma, rel=1e-14)
    assert report.rmse_bound == pytest.approx((1.0 + gamma) * 4.0 * 0.25, rel=1e-14)
    eta = 1.0 + 0.5 + 4.0
    assert report.rmse_principal == pytest.approx((1.0 + eta) * 0.75, rel=1e-14)
    assert report.flags["gamma_le_1"] is False


def test_rmse_bound_principal_vanishes_without_signal_sources():
    p = 8
    cov = CovarianceModel(
        p=p,
        endo_eigs=np.zeros(p),
        signal_eigs=np.ones(p),
        trunc_level=0,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(p), noise_sd=0.5)
    report = rmse_upper_bound(model, n=p, delta=0.1, B=1.0)
    assert report.rmse_principal == 0.0


def test_rmse_bound_rejects_small_ball():
    model = setup_i_model(100)
    with pytest.raises(ValueError):
        rmse_upper_bound(model, 100, 0.1, B=1.0)


def test_rmse_bound_regression_constants():
    model = setup_i_model(400)
    report = rmse_upper_bound(model, 400, 0.1, B=945.3840132938518)
    assert report.gamma_delta == pytest.approx(31.146252741138888, rel=1e-12)
    assert report.rmse_bound == pytest.approx(547973.0949291879, rel=1e-12)
    assert report.rmse_principal == pytest.approx(619.2116796429967, rel=1e-12)
    rows = report.rows()
    assert rows[0]["delta"] == 0.1 and "rmse_bound" in rows[0]


def test_rmse_bound_dominates_realized_risk_small_sample():
    # the literal bound at the literal-norm radius should cover easy draws
    model = setup_i_model(100)
    radius = norm_upper_bound(model, 100, 0.1).norm_bound
    bound = rmse_upper_bound(model, 100, 0.1, B=radius).rmse_bound
    for rep in range(5):
        data = sample_dataset(model, 100, seed=900 + rep)
        theta = min_norm_interpolator(data.X, data.Y).theta_hat
        risk = projected_rmse(theta, model.true_coef, model.cov.signal_eigs)
        assert risk <= bound


def test_norm_bound_exogenous_reduction():
    prof = ExpPlusNoiseSpectrum(tau=2.0, scale=10.0, p_rule=DimensionRule("power", 1.5))
    cov = build_covariance(prof, 150, split_kind="orthogonal", rotation=None)
    idx = np.arange(1, cov.p + 1, dtype=float)
    model = assemble_model(cov, 5.0 / idx, noise_sd=2.0)
    n = 150
    report = norm_upper_bound(model, n, 0.1)
    assert report.eta1 == 0.0
    assert report.eta2 == 0.0
    sig = model.cov.signal_eigs
    r, big_r = effective_ranks(sig)
    tr_sig = float(sig.sum())
    eps = math.sqrt(math.log(10.0)) * (
        math.sqrt(model.cov.endo_rank() / n) + (n / big_r)
    )
    assert report.epsilon_principal == pytest.approx(eps, rel=1e-12)
    assert report.epsilon == pytest.approx(56.0 * eps, rel=1e-12)
    expected = math.sqrt(1.0 + 56.0 * eps) * (
        float(np.linalg.norm(model.true_coef)) + 2.0 * math.sqrt(n / tr_sig)
    )
    assert report.norm_bound == pytest.approx(expected, rel=1e-12)


def test_rmse_principal_exogenous_matches_plain_regression_form():
    # with no covariate-error correlation the principal part must coincide,
    # term by term, with the independently composed exogenous bound
    prof = ExpPlusNoiseSpectrum(tau=2.0, scale=10.0, p_rule=DimensionRule("power", 1.5))
    cov = build_covariance(prof, 120, split_kind="orthogonal", rotation=None)
    idx = np.arange(1, cov.p + 1, dtype=float)
    model = assemble_model(cov, 3.0 / idx, noise_sd=2.0)
    n = 120
    report = rmse_upper_bound(model, n, 0.05, B=100.0)
    t = float(np.linalg.norm(model.true_coef)) * math.sqrt(
        float(model.cov.signal_eigs.sum()) / n
    )
    eta = eta_delta(model, n, 0.05)
    sigma = math.sqrt(sigma_tilde2(model))
    assert report.rmse_principal == pytest.approx(
        (1.0 + eta) * max(1.0, sigma) * (t + t * t), rel=1e-13
    )


def test_norm_bound_needs_positive_residual_noise():
    with pytest.raises(DegenerateNoise):
        norm_upper_bound(tiny_model(rho=1.0, noise_sd=1.0), n=4, delta=0.1)


def test_norm_bound_regression_constants_nonorthogonal():
    model = setup_i_model(300, split="nonorthogonal", alpha=1.01)
    report = norm_upper_bound(model, 300, 0.1)
    assert report.constants_used["C2"] == 160.0
    assert report.eta1 == pytest.approx(0.17224325221915546, rel=1e-12)
    assert report.eta2 == pytest.approx(1.2914995344204787, rel=1e-12)
    assert report.epsilon == pytest.approx(283303.5669184771, rel=1e-12)
    assert report.norm_bound == pytest.approx(44468.144344405766, rel=1e-12)
    assert report.norm_principal == pytest.approx(3516.501860304896, rel=1e-12)


def test_norm_bound_regression_constants_orthogonal():
    model = setup_i_model(400)
    report = norm_upper_bound(model, 400, 0.1)
    assert report.constants_used["C2"] == 56.0
    assert report.norm_bound == pytest.approx(945.3840132938518, rel=1e-12)
    assert report.norm_principal == pytest.approx(151.99384036691308, rel=1e-12)


# --------------------------------------------------------------- conditions


def logpoly_orthogonal_family(n):
    prof = LogPolySpectrum(
        scale=300.0, beta=2.0, log_factor=math.e / 2, p_rule=DimensionRule("multiple", 5.0)
    )
    cov = build_covariance(prof, n, rotation=None)
    idx = np.arange(1, cov.p + 1, dtype=float)
    omega = 0.5 / idx / (np.log(idx + 1.0) * math.e / 2) ** 2
    omega[cov.trunc_level :] = 0.0
    return assemble_model(cov, 20.0 / np.sqrt(idx), cross_cov=omega)


def logpoly_nonorthogonal_family(n, alpha=2.0):
    prof = LogPolySpectrum(
        scale=300.0, beta=2.0, log_factor=math.e / 2, p_rule=DimensionRule("multiple", 5.0)
    )
    cov = build_covariance(prof, n, split_kind="nonorthogonal", alpha=alpha, rotation=None)
    idx = np.arange(1, cov.p + 1, dtype=float)
    omega = 0.5 / idx / (np.log(idx + 1.0) * math.e / 2) ** 2
    omega[cov.trunc_level :] = 0.0
    return assemble_model(cov, 20.0 / np.sqrt(idx), cross_cov=omega)


def fixed_p_identity_family(n, p=50):
    cov = CovarianceModel(
        p=p,
        endo_eigs=np.zeros(p),
        signal_eigs=np.ones(p),
        trunc_level=0,
        split_kind="orthogonal",
    )
    return assemble_model(cov, np.ones(p) / p, noise_sd=1.0)


GRID = tuple(range(100, 801, 100))


def test_conditions_grid_validation():
    with pytest.raises(ValueError):
        evaluate_conditions(logpoly_orthogonal_family, (100, 200), mode="orthogonal")
    with pytest.raises(ValueError):
        evaluate_conditions(logpoly_orthogonal_family, (300, 200, 100), mode="orthogonal")
    with pytest.raises(ValueError):
        evaluate_conditions(logpoly_orthogonal_family, GRID, mode="sideways")


def test_conditions_orthogonal_family_all_decreasing():
    report = evaluate_conditions(logpoly_orthogonal_family, GRID, mode="orthogonal")
    assert set(report.sequences) == {"rank_ratio", "eff_dim", "aliasing", "endo"}
    for name, verdict in report.verdicts.items():
        assert verdict.decreasing, name
        assert verdict.final >= 0.0


def test_conditions_nonorthogonal_family_all_decreasing():
    report = evaluate_conditions(logpoly_nonorthogonal_family, GRID, mode="nonorthogonal")
    assert set(report.sequences) == {
        "rank_ratio",
        "eff_dim",
        "aliasing",
        "endo_nonortho",
        "cross_rank",
        "mixed",
    }
    for name, verdict in report.verdicts.items():
        assert verdict.decreasing, name


def test_conditions_fixed_p_anti_example():
    report = evaluate_conditions(fixed_p_identity_family, (100, 200, 300), mode="exogenous")
    assert not report.verdicts["eff_dim"].decreasing
    # n/p grows linearly while the latent-noise block stays empty
    assert report.sequences["eff_dim"][0] == pytest.approx(2.0, rel=1e-14)
    assert report.sequences["rank_ratio"][-1] == 0.0
    assert "cross_rank" in report.sequences


def test_conditions_rows_layout():
    report = evaluate_conditions(fixed_p_identity_family, (100, 200, 300), mode="exogenous")
    rows = report.rows()
    assert [row["n"] for row in rows] == [100, 200, 300]
    assert all("eff_dim" in row and "aliasing" in row for row in rows)
