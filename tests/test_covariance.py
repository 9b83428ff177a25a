import math

import numpy as np
import pytest

from ridgeless_iv.covariance import (
    CovarianceModel,
    DimensionRule,
    EndogeneityTooStrong,
    ExplicitSpectrum,
    ExpPlusNoiseSpectrum,
    InvalidAlpha,
    InvalidProfile,
    InvalidSpectrum,
    LogPolySpectrum,
    PatternRotation,
    assemble_model,
    build_covariance,
    spectrum,
    split_nonorthogonal_eigs,
    split_orthogonal_eigs,
    truncation_level,
)


def setup_i_profile():
    return LogPolySpectrum(
        scale=300.0, beta=2.0, log_factor=math.e / 2, p_rule=DimensionRule("multiple", 5.0)
    )


# ----------------------------------------------------------------- spectra


def test_logpoly_first_eigenvalue():
    p, eigs = spectrum(setup_i_profile(), 100)
    assert p == 500
    assert eigs[0] == pytest.approx(300.0 / (math.log(2.0) * math.e / 2) ** 2, rel=1e-12)
    assert eigs[0] == pytest.approx(338.01919267715266, rel=1e-12)
    assert np.all(np.diff(eigs) <= 0) and np.all(eigs > 0)


def test_explicit_passthrough():
    prof = ExplicitSpectrum((5.0, 3.0, 1.0))
    for n in (1, 50):
        p, eigs = spectrum(prof, n)
        assert p == 3 and np.allclose(eigs, [5.0, 3.0, 1.0])


def test_exp_plus_noise_values():
    prof = ExpPlusNoiseSpectrum(tau=2.0, scale=10.0)
    p, eigs = spectrum(prof, 100)
    assert p == 1000
    i = np.arange(1, 1001, dtype=float)
    assert np.allclose(eigs, 10.0 * np.exp(-i / 2.0) + math.exp(-10.0) / 10.0, rtol=1e-14)


def test_dimension_rules():
    assert DimensionRule("multiple", 5.0)(200) == 1000
    assert DimensionRule("power", 1.5)(200) == 2828
    assert DimensionRule("fixed", 64)(999) == 64
    with pytest.raises(InvalidProfile):
        DimensionRule("cubic", 1.0)


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        LogPolySpectrum(scale=-1.0, beta=2.0)
    with pytest.raises(InvalidProfile):
        ExpPlusNoiseSpectrum(tau=0.0, scale=10.0)
    with pytest.raises(InvalidProfile):
        ExplicitSpectrum((1.0, 2.0))


# ------------------------------------------------------------- truncation


def test_truncation_hand_example():
    # k=0: tail 14, ratio 1.4 <= 2; k=1: tail 4, ratio 4 > 2
    assert truncation_level(np.array([10.0, 1.0, 1.0, 1.0, 1.0]), 2) == 1


def test_truncation_flat_spectrum():
    p = 40
    assert truncation_level(np.ones(p), p - 2) == 0


def test_truncation_no_level():
    assert truncation_level(np.array([1.0]), 5) is None


def test_truncation_rejects_zero_spectrum():
    with pytest.raises(InvalidSpectrum):
        truncation_level(np.zeros(4), 10)


def test_truncation_regression_constant():
    # frozen scan result for the log-poly profile at n=200
    p, eigs = spectrum(setup_i_profile(), 200)
    assert p == 1000
    assert truncation_level(eigs, 200) == 142


def test_truncation_matches_direct_scan():
    for prof, n in [(setup_i_profile(), 100), (ExpPlusNoiseSpectrum(tau=2.0, scale=10.0), 100)]:
        _, eigs = spectrum(prof, n)
        k = truncation_level(eigs, n)
        found = None
        for cand in range(eigs.size):
            if eigs[cand] > 0 and eigs[cand:].sum() / eigs[cand] > n:
                found = cand
                break
        assert k == found
        # minimality: the level qualifies, the one before does not
        assert eigs[k:].sum() / eigs[k] > n
        if k >= 1:
            assert eigs[k - 1 :].sum() / eigs[k - 1] <= n


# --------------------------------------------------------------- rotation


def oracle_rotation(p):
    """Plain Gram-Schmidt on the pattern columns, dependent -> basis vector."""
    j = np.arange(1, p + 1)
    pat = (np.abs(j[:, None] - j[None, :]) != p - 2).astype(float)
    u = np.zeros((p, p))
    for c in range(p):
        v = pat[:, c].copy()
        v -= u[:, :c] @ (u[:, :c].T @ v)
        v -= u[:, :c] @ (u[:, :c].T @ v)
        if np.linalg.norm(v) < 1e-10:
            v = np.zeros(p)
            v[c] = 1.0
            v -= u[:, :c] @ (u[:, :c].T @ v)
        u[:, c] = v / np.linalg.norm(v)
    return u


def dense_rotation(p):
    """The rotation as a matrix: its products with the identity columns."""
    rot = PatternRotation(p)
    return np.column_stack([rot.matvec(e) for e in np.eye(p)])


def test_rotation_p2_exchange():
    # antiband hits the diagonal, so the pattern is the exchange matrix
    assert np.allclose(dense_rotation(2), [[0.0, 1.0], [1.0, 0.0]])


def test_rotation_orthonormal_small():
    for p in range(2, 12):
        u = dense_rotation(p)
        assert np.abs(u.T @ u - np.eye(p)).max() <= 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8


def test_rotation_closed_form_matches_oracle():
    for p in (7, 8, 13, 40, 101):
        rot = PatternRotation(p)
        ref = oracle_rotation(p)
        assert np.abs(dense_rotation(p) - ref).max() <= 1e-10
        rng = np.random.default_rng(p)
        for _ in range(3):
            v = rng.standard_normal(p)
            assert np.abs(rot.matvec(v) - ref @ v).max() <= 1e-10


def test_rotation_matvec_large_p():
    p = 5000
    rot = PatternRotation(p)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(p)
    y = rot.matvec(v)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(v), rel=1e-12)


# ------------------------------------------------------------------ splits


def split_cov(endo_eigs, signal_eigs, k, split_kind="orthogonal"):
    cov = CovarianceModel(
        p=endo_eigs.size, endo_eigs=endo_eigs, signal_eigs=signal_eigs,
        trunc_level=k, split_kind=split_kind,
    )
    return np.diag(cov.endo_eigs), np.diag(cov.signal_eigs), np.diag(cov.total_eigs)


def test_split_orthogonal_diag():
    eigs = np.array([3.0, 2.0, 1.0])
    endo, sig, _ = split_cov(*split_orthogonal_eigs(eigs, 1), 1)
    assert np.allclose(endo, np.diag([3.0, 0.0, 0.0]))
    assert np.allclose(sig, np.diag([0.0, 2.0, 1.0]))
    endo0, sig0 = split_orthogonal_eigs(eigs, 0)
    assert np.allclose(endo0, 0) and np.allclose(sig0, eigs)
    endop, sigp = split_orthogonal_eigs(eigs, 3)
    assert np.allclose(sigp, 0) and np.allclose(endop, eigs)


def test_split_nonorthogonal_example():
    endo, sig, _ = split_cov(
        *split_nonorthogonal_eigs(np.array([2.0, 1.0]), 1, 1.01, 10), 1, "nonorthogonal"
    )
    leak = 10.0 ** (-1.01)
    assert np.allclose(endo, np.diag([2.0 * (1.0 - leak), 0.0]))
    assert np.allclose(sig, np.diag([2.0 * leak, 1.0]))


def test_split_nonorthogonal_validation_and_limits():
    with pytest.raises(InvalidAlpha):
        split_nonorthogonal_eigs(np.array([1.0]), 1, 1.0, 10)
    eigs = np.array([4.0, 2.0, 1.0])
    for k in (0, 1, 2):
        endo, sig = split_nonorthogonal_eigs(eigs, k, 1.01, 50)
        assert float(endo @ sig) > 0 if k >= 1 else float(endo @ sig) == 0
    # huge n recovers the orthogonal split
    endo, sig = split_nonorthogonal_eigs(eigs, 2, 1.01, 10**9)
    assert float(endo @ sig) <= 1e-7


def test_split_identities_dense():
    rng = np.random.default_rng(2)
    eigs = np.sort(rng.uniform(0.5, 4.0, 6))[::-1]
    for split, kind in (
        (split_orthogonal_eigs(eigs, 2), "orthogonal"),
        (split_nonorthogonal_eigs(eigs, 2, 1.5, 30), "nonorthogonal"),
    ):
        endo, sig, total = split_cov(*split, 2, kind)
        assert np.abs(total - np.diag(eigs)).max() <= 1e-12 * eigs[0]
        assert np.abs(endo + sig - total).max() <= 1e-12 * eigs[0]
    endo, sig, _ = split_cov(*split_orthogonal_eigs(eigs, 2), 2)
    op_norm = eigs[0]
    assert np.abs(endo @ sig).max() <= 1e-10 * op_norm


# ------------------------------------------------------------------ models


def test_build_covariance_setups():
    cov = build_covariance(setup_i_profile(), 100)
    assert cov.p == 500 and cov.trunc_level == 75
    assert cov.split_kind == "orthogonal"
    assert np.allclose(cov.total_eigs, spectrum(setup_i_profile(), 100)[1])
    assert cov.endo_rank() == cov.trunc_level
    cov2 = build_covariance(ExpPlusNoiseSpectrum(tau=2.0, scale=10.0), 100, "nonorthogonal", 1.01)
    assert cov2.trunc_level == 24 and cov2.alpha == 1.01
    # leaked mass keeps the blocks overlapping
    assert float(cov2.endo_eigs @ cov2.signal_eigs) > 0


def test_assemble_hand_example():
    cov = CovarianceModel(
        p=2,
        endo_eigs=np.array([1.0, 0.0]),
        signal_eigs=np.array([0.0, 1.0]),
        trunc_level=1,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(2), whitened_cross=np.array([0.5, 0.0]), noise_sd=1.0)
    assert np.allclose(model.cross_cov, [0.5, 0.0])
    assert model.resid_noise_var == pytest.approx(0.75)
    assert model.joint_min_eigenvalue() >= -1e-8


def test_assemble_exogenous():
    cov = CovarianceModel(
        p=3,
        endo_eigs=np.zeros(3),
        signal_eigs=np.array([3.0, 2.0, 1.0]),
        trunc_level=0,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.ones(3), noise_sd=2.0)
    assert np.allclose(model.cross_cov, 0) and model.resid_noise_var == pytest.approx(4.0)


def test_assemble_rejects_strong_endogeneity():
    cov = CovarianceModel(
        p=2,
        endo_eigs=np.array([1.0, 1.0]),
        signal_eigs=np.zeros(2),
        trunc_level=2,
        split_kind="orthogonal",
    )
    with pytest.raises(EndogeneityTooStrong):
        assemble_model(cov, np.zeros(2), whitened_cross=np.array([3.0, 0.0]), noise_sd=1.0)


def test_assemble_out_of_range_projection():
    # whitened request has mass outside the rank-1 latent block; it must drop
    cov = CovarianceModel(
        p=3,
        endo_eigs=np.array([4.0, 0.0, 0.0]),
        signal_eigs=np.array([0.0, 1.0, 1.0]),
        trunc_level=1,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(3), whitened_cross=np.array([1.0, 1.0, 1.0]), noise_sd=4.0)
    assert np.allclose(model.whitened_cross, [1.0, 0.0, 0.0])
    assert np.allclose(model.cross_cov, [2.0, 0.0, 0.0])
    assert np.allclose(model.requested_whitened, [1.0, 1.0, 1.0])
    assert model.resid_noise_var == pytest.approx(15.0)


def test_default_noise_level():
    cov = CovarianceModel(
        p=2,
        endo_eigs=np.array([1.0, 1.0]),
        signal_eigs=np.zeros(2),
        trunc_level=2,
        split_kind="orthogonal",
    )
    model = assemble_model(cov, np.zeros(2), whitened_cross=np.array([0.6, 0.8]))
    # default noise sd is twice the whitened norm: var 4, leftover 3
    assert model.noise_var == pytest.approx(4.0)
    assert model.resid_noise_var == pytest.approx(3.0)


def test_joint_min_eig_matches_dense():
    rng = np.random.default_rng(9)
    p = 6
    cov = CovarianceModel(
        p=p,
        endo_eigs=np.sort(rng.uniform(0.5, 2.0, p))[::-1],
        signal_eigs=np.zeros(p),
        trunc_level=p,
        split_kind="orthogonal",
    )
    w = rng.uniform(-0.3, 0.3, p)
    model = assemble_model(cov, np.zeros(p), whitened_cross=w, noise_sd=1.3)
    rho = model.whitened_cross
    joint = np.zeros((2 * p + 1, 2 * p + 1))
    joint[:p, :p] = np.eye(p)
    joint[p : 2 * p, p : 2 * p] = np.eye(p)
    joint[p : 2 * p, 2 * p] = rho
    joint[2 * p, p : 2 * p] = rho
    joint[2 * p, 2 * p] = model.noise_var
    dense_min = np.linalg.eigvalsh(joint).min()
    assert model.joint_min_eigenvalue() == pytest.approx(dense_min, abs=1e-10)


def test_setup_ii_model_accepts_default_noise():
    cov = build_covariance(ExpPlusNoiseSpectrum(tau=2.0, scale=10.0), 100)
    i = np.arange(1, cov.p + 1, dtype=float)
    model = assemble_model(cov, 20.0 / np.sqrt(i), whitened_cross=3.0 * np.exp(-i / 4.0))
    assert model.resid_noise_var > 0
    assert float(model.whitened_cross @ model.whitened_cross) <= model.noise_var
