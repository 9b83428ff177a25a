import math

import numpy as np
import pytest

from references import joint_min_eigenvalue
from ridgeless_iv.covariance import (
    EndogeneityTooStrong,
    EndogenousModel,
    InvalidModel,
    InvalidSpectrum,
    PatternRotation,
    split_eigs,
    truncation_level,
)
from ridgeless_iv.harness import (
    _PROFILES,
    InvalidAlpha,
    InvalidConfig,
    _custom_model,
    _family_eigs,
)

SETUP_I = {
    "family": "log_poly", "scale": 300.0, "beta": 2.0, "log_factor": math.e / 2,
    "dim": {"kind": "multiple", "value": 5.0},
}
EXP_NOISE = {"family": "exp_plus_noise", "tau": 2.0, "scale": 10.0}


def split_profile(profile, n):
    """(latent-noise, signal) diagonals of a custom profile at sample size n."""
    model = _custom_model(profile, n)
    return model.endo_eigs, model.signal_eigs


# ----------------------------------------------------------------- spectra


def test_logpoly_first_eigenvalue():
    eigs = _family_eigs(SETUP_I, 100)
    assert eigs.size == 500
    assert eigs[0] == pytest.approx(300.0 / (math.log(2.0) * math.e / 2) ** 2, rel=1e-12)
    assert eigs[0] == pytest.approx(338.01919267715266, rel=1e-12)
    assert np.all(np.diff(eigs) <= 0) and np.all(eigs > 0)


def test_explicit_passthrough():
    prof = {"family": "explicit", "values": [5.0, 3.0, 1.0]}
    for n in (1, 50):
        eigs = _family_eigs(prof, n)
        assert eigs.size == 3 and np.allclose(eigs, [5.0, 3.0, 1.0])


def test_exp_plus_noise_values():
    eigs = _family_eigs(EXP_NOISE, 100)
    assert eigs.size == 1000
    i = np.arange(1, 1001, dtype=float)
    assert np.allclose(eigs, 10.0 * np.exp(-i / 2.0) + math.exp(-10.0) / 10.0, rtol=1e-14)


def test_dimension_rules():
    def p(kind, value, n):
        dim = {"kind": kind, "value": value}
        return _family_eigs({"family": "log_poly", "scale": 1.0, "beta": 1.0, "dim": dim}, n).size

    assert p("multiple", 5.0, 200) == 1000
    assert p("power", 1.5, 200) == 2828
    assert p("fixed", 64, 999) == 64
    with pytest.raises(InvalidConfig):
        p("cubic", 1.0, 1)


def test_profile_validation():
    with pytest.raises(InvalidConfig):
        _family_eigs({"family": "log_poly", "scale": -1.0, "beta": 2.0}, 1)
    with pytest.raises(InvalidConfig):
        _family_eigs({"family": "exp_plus_noise", "tau": 0.0, "scale": 10.0}, 1)
    with pytest.raises(InvalidSpectrum):
        _family_eigs({"family": "explicit", "values": [1.0, 2.0]}, 1)


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
    eigs = _family_eigs(SETUP_I, 200)
    assert eigs.size == 1000
    assert truncation_level(eigs, 200) == 142


def test_truncation_matches_direct_scan():
    for prof, n in [(SETUP_I, 100), (EXP_NOISE, 100)]:
        eigs = _family_eigs(prof, n)
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


def test_rotation_needs_two_coordinates():
    with pytest.raises(ValueError, match="p >= 2"):
        PatternRotation(1)


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


def test_split_orthogonal_diag():
    eigs = np.array([3.0, 2.0, 1.0])
    endo, sig = split_eigs(eigs, 1)
    assert np.array_equal(endo, [3.0, 0.0, 0.0])
    assert np.array_equal(sig, [0.0, 2.0, 1.0])
    endo0, sig0 = split_eigs(eigs, 0)
    assert np.allclose(endo0, 0) and np.allclose(sig0, eigs)
    endop, sigp = split_eigs(eigs, 3)
    assert np.allclose(sigp, 0) and np.allclose(endop, eigs)
    with pytest.raises(ValueError):
        split_eigs(eigs, 4)


def test_split_nonorthogonal_example():
    leak = 10.0 ** (-1.01)
    endo, sig = split_eigs(np.array([2.0, 1.0]), 1, leak)
    assert np.allclose(endo, [2.0 * (1.0 - leak), 0.0])
    assert np.allclose(sig, [2.0 * leak, 1.0])


def test_split_nonorthogonal_validation_and_limits():
    prof = {"family": "explicit", "values": [4.0, 2.0, 1.0, 1.0, 1.0, 1.0]}
    with pytest.raises(InvalidAlpha):
        split_profile({**prof, "split": "nonorthogonal", "alpha": 1.0}, 2)
    # a profile fault like any other, which the command line maps to exit 2
    with pytest.raises(InvalidConfig):
        split_profile({**prof, "split": "nonorthogonal", "alpha": 0.5}, 2)
    eigs = np.array([4.0, 2.0, 1.0])
    for k in (0, 1, 2):
        endo, sig = split_eigs(eigs, k, 50.0 ** (-1.01))
        assert float(endo @ sig) > 0 if k >= 1 else float(endo @ sig) == 0
    # huge n recovers the orthogonal split
    endo, sig = split_eigs(eigs, 2, 1e9 ** (-1.01))
    assert float(endo @ sig) <= 1e-7


def test_split_rejects_alpha_that_leaks_nothing():
    # at n = 100, 100^-10 = 1e-20 rounds away against 1, which would leave
    # the blocks exactly orthogonal under a nonorthogonal request
    with pytest.raises(InvalidConfig, match=r"alpha 10\.0 .* n=100"):
        _custom_model({**_PROFILES["iii"], "alpha": 10.0}, 100)
    assert _custom_model({**_PROFILES["iii"], "alpha": 8.0}, 100).split_kind == "nonorthogonal"


def test_split_identities_dense():
    rng = np.random.default_rng(2)
    eigs = np.sort(rng.uniform(0.5, 4.0, 6))[::-1]
    for leak in (0.0, 30.0 ** (-1.5)):
        endo, sig = split_eigs(eigs, 2, leak)
        assert np.abs(endo + sig - eigs).max() <= 1e-12 * eigs[0]
    endo, sig = split_eigs(eigs, 2)
    assert np.array_equal(endo + sig, eigs) and not np.any(endo * sig)


# ------------------------------------------------------------------ models


def test_build_covariance_setups():
    endo, sig = split_profile(SETUP_I, 100)
    assert endo.size == 500 and np.count_nonzero(endo) == 75
    assert np.array_equal(endo + sig, _family_eigs(SETUP_I, 100))
    model = EndogenousModel.build(sig, endo, np.zeros(500))
    assert model.endo_rank() == 75 and model.split_kind == "orthogonal"
    endo2, sig2 = split_profile({**EXP_NOISE, "split": "nonorthogonal", "alpha": 1.01}, 100)
    assert np.count_nonzero(endo2) == 24
    # leaked mass keeps the blocks overlapping
    assert float(endo2 @ sig2) > 0


def test_assemble_hand_example():
    model = EndogenousModel.build(
        [0.0, 1.0], [1.0, 0.0], np.zeros(2), whitened_cross=[0.5, 0.0], noise_sd=1.0
    )
    assert np.allclose(model.cross_cov, [0.5, 0.0])
    assert model.resid_noise_var == pytest.approx(0.75)
    assert joint_min_eigenvalue(model) >= -1e-8


def test_assemble_accepts_energy_at_the_noise_variance():
    # |w|^2 is just below noise_var, so the joint covariance is PSD; the
    # closed form of its 2x2 pencil cancels at this scale and reads an
    # eigenvalue near -3e-5, which must not reject the model
    w = np.array([398197.2106396361, 220454.89594527942, 539366.972962896, 0.0])
    model = EndogenousModel.build(
        np.array([0.0, 0, 0, 1]), np.array([1.0, 1, 1, 0]), np.ones(4), w,
        noise_sd=705746.492184402,
    )
    assert float(w @ w) <= model.noise_var


def test_assemble_exogenous():
    model = EndogenousModel.build([3.0, 2.0, 1.0], np.zeros(3), np.ones(3), noise_sd=2.0)
    assert np.allclose(model.cross_cov, 0) and model.resid_noise_var == pytest.approx(4.0)
    assert model.p == 3 and np.array_equal(model.total_eigs, [3.0, 2.0, 1.0])


def test_assemble_rejects_strong_endogeneity():
    with pytest.raises(EndogeneityTooStrong):
        EndogenousModel.build(
            np.zeros(2), [1.0, 1.0], np.zeros(2), whitened_cross=[3.0, 0.0], noise_sd=1.0
        )


def test_assemble_out_of_range_projection():
    # whitened request has mass outside the rank-1 latent block; it must drop
    model = EndogenousModel.build(
        [0.0, 1.0, 1.0], [4.0, 0.0, 0.0], np.zeros(3), whitened_cross=np.ones(3), noise_sd=4.0
    )
    assert np.allclose(model.whitened_cross, [1.0, 0.0, 0.0])
    assert np.allclose(model.cross_cov, [2.0, 0.0, 0.0])
    assert model.resid_noise_var == pytest.approx(15.0)


def test_default_noise_level():
    model = EndogenousModel.build(np.zeros(2), [1.0, 1.0], np.zeros(2), whitened_cross=[0.6, 0.8])
    # default noise sd is twice the whitened norm: var 4, leftover 3
    assert model.noise_var == pytest.approx(4.0)
    assert model.resid_noise_var == pytest.approx(3.0)


GOOD = {
    "signal_eigs": [0.0, 1.0, 1.0],
    "endo_eigs": [4.0, 0.0, 0.0],
    "true_coef": [1.0, -2.0, 0.5],
    "whitened_cross": [0.5, 0.0, 0.0],
    "noise_sd": 1.0,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_sd", math.nan),
        ("noise_sd", math.inf),
        ("noise_sd", 0.0),
        ("noise_sd", -1.0),
        ("endo_eigs", [-1.0, 0.0, 0.0]),
        ("endo_eigs", [math.nan, 0.0, 0.0]),
        ("endo_eigs", [4.0, math.inf, 0.0]),
        ("signal_eigs", [0.0, -1.0, 1.0]),
        ("signal_eigs", [0.0, 1.0]),
        ("signal_eigs", [[0.0, 1.0, 1.0]]),
        ("true_coef", [1.0, math.nan, 0.5]),
        ("true_coef", [1.0, 2.0]),
        ("true_coef", 1.0),
        ("whitened_cross", 0.5),
    ],
)
def test_model_rejects_invalid_fields(field, value):
    EndogenousModel.build(**GOOD)  # the unchanged fields build
    with pytest.raises(InvalidModel):
        EndogenousModel.build(**dict(GOOD, **{field: value}))


def test_constructor_checks_what_build_derives():
    fields = dict(GOOD, noise_var=1.0)
    del fields["noise_sd"]
    EndogenousModel(**fields)
    for key, value in (("noise_var", math.nan), ("whitened_cross", [0.5, 0.1, 0.0])):
        with pytest.raises(InvalidModel):
            EndogenousModel(**dict(fields, **{key: value}))


def test_joint_min_eig_matches_dense():
    rng = np.random.default_rng(9)
    p = 6
    endo = np.sort(rng.uniform(0.5, 2.0, p))[::-1]
    w = rng.uniform(-0.3, 0.3, p)
    model = EndogenousModel.build(np.zeros(p), endo, np.zeros(p), whitened_cross=w, noise_sd=1.3)
    rho = model.whitened_cross
    joint = np.zeros((2 * p + 1, 2 * p + 1))
    joint[:p, :p] = np.eye(p)
    joint[p : 2 * p, p : 2 * p] = np.eye(p)
    joint[p : 2 * p, 2 * p] = rho
    joint[2 * p, p : 2 * p] = rho
    joint[2 * p, 2 * p] = model.noise_var
    dense_min = np.linalg.eigvalsh(joint).min()
    assert joint_min_eigenvalue(model) == pytest.approx(dense_min, abs=1e-10)


def test_setup_ii_model_accepts_default_noise():
    endo, sig = split_profile(EXP_NOISE, 100)
    i = np.arange(1, endo.size + 1, dtype=float)
    rho = PatternRotation(endo.size).matvec(3.0 * np.exp(-i / 4.0))
    model = EndogenousModel.build(sig, endo, 20.0 / np.sqrt(i), whitened_cross=rho)
    assert model.resid_noise_var > 0
    assert float(model.whitened_cross @ model.whitened_cross) <= model.noise_var
