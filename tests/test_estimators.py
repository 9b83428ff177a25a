import dataclasses

import numpy as np
import pytest
import scipy.linalg

import references
from ridgeless_iv import estimators
from references import lower_tail_design, ridge
from ridgeless_iv.cgmt_lab import slice_model
from ridgeless_iv.covariance import EndogenousModel
from ridgeless_iv.estimators import (
    ConvergenceFailure,
    InvalidData,
    SingularDesign,
    lasso_cd,
    min_norm_interpolator,
    plugin_lambda,
    split_sample_lasso_iv,
)
from ridgeless_iv.harness import repetition_seed, setup_model
from ridgeless_iv.sampling import sample_dataset


# -------------------------------------------------------------- min norm


def test_min_norm_single_row():
    fit = min_norm_interpolator(np.array([[1.0, 0.0]]), np.array([3.0]))
    assert np.allclose(fit.theta_hat, [3.0, 0.0])


def test_min_norm_identity_design():
    y = np.array([1.0, -2.0, 0.5])
    fit = min_norm_interpolator(np.eye(3), y)
    assert np.allclose(fit.theta_hat, y)
    assert fit.train_loss <= 1e-16 * float(y @ y) / 3


def test_min_norm_interpolates_and_is_minimal():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p = int(rng.integers(2, 12)), int(rng.integers(12, 30))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = min_norm_interpolator(x, y)
        th = fit.theta_hat
        assert np.linalg.norm(x @ th - y) <= 1e-8 * np.linalg.norm(y)
        # row-space membership
        proj = x.T @ np.linalg.solve(x @ x.T, x @ th)
        assert np.linalg.norm(th - proj) <= 1e-8 * np.linalg.norm(th)
        # any null-space perturbation cannot shrink the norm
        basis = scipy.linalg.null_space(x)
        for _ in range(10):
            z = basis @ rng.standard_normal(basis.shape[1])
            assert np.linalg.norm(th + z) >= np.linalg.norm(th) - 1e-12


def test_min_norm_rank_deficient_rows():
    # duplicated row: pseudoinverse path must still interpolate consistently
    x = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    y = np.array([5.0, 5.0])
    fit = min_norm_interpolator(x, y)
    assert np.allclose(x @ fit.theta_hat, y)


@pytest.mark.parametrize("design", ["duplicated_row", "tall", "lower_tail_duplicated_row"])
def test_min_norm_falls_back_to_pseudoinverse(design, monkeypatch):
    # a singular Gram, or an R with a negligible diagonal entry, skips the
    # factored answer; X itself is solved by an SVD least-squares solve,
    # which gives the pseudoinverse answer pinv(X) Y
    rng = np.random.default_rng(23)
    if design == "duplicated_row":
        x = rng.standard_normal((6, 20))
        x[5] = x[2]
    elif design == "tall":  # p < n: the Gram has rank p
        x = rng.standard_normal((12, 5))
    else:  # a later row repeating an earlier one keeps the block lower triangular
        x = lower_tail_design(rng, 8, 3)
        x[6] = x[2]
        assert estimators._lower_tail(x)
    y = rng.standard_normal(x.shape[0])
    calls = []
    pseudoinverse = estimators.pseudoinverse

    def counted(*args):
        calls.append("pseudoinverse")
        return pseudoinverse(*args)

    monkeypatch.setattr(estimators, "pseudoinverse", counted)
    fit = min_norm_interpolator(x, y)
    assert calls == ["pseudoinverse"]
    ref = scipy.linalg.pinv(x) @ y
    assert np.linalg.norm(fit.theta_hat - ref) <= 1e-12 * np.linalg.norm(ref)


def count_routes(monkeypatch):
    # the factorizations and the fallback each fit calls, in order
    calls = []
    for name in ("lower_tail_qr", "cholesky_lower", "pseudoinverse"):
        real = getattr(estimators, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(estimators, name, counted)
    return calls


@pytest.mark.parametrize("head", [0, 1, 4, 37])
def test_min_norm_lower_tail_route_matches_pinv(head, monkeypatch):
    # a design wider than tall with a lower-triangular trailing block takes
    # the structured QR; a square one (head 0) takes the Cholesky route
    rng = np.random.default_rng(41)
    calls = count_routes(monkeypatch)
    for n in (1, 3, 12, 50):
        x = lower_tail_design(rng, n, head)
        y = rng.standard_normal(n)
        del calls[:]
        fit = min_norm_interpolator(x, y)
        assert calls == (["lower_tail_qr"] if head else ["cholesky_lower"])
        ref = scipy.linalg.pinv(x) @ y
        assert np.linalg.norm(fit.theta_hat - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("row", [0, 17])
def test_min_norm_entry_above_block_diagonal_takes_cholesky(row, monkeypatch):
    # one nonzero above the trailing block's diagonal, in the row-0 look or
    # past it, sends the design to the Gram
    rng = np.random.default_rng(43)
    n, head = 30, 6
    x = lower_tail_design(rng, n, head)
    y = rng.standard_normal(n)
    x[row, head + row + 5] = 0.25
    calls = count_routes(monkeypatch)
    fit = min_norm_interpolator(x, y)
    assert calls == ["cholesky_lower"]
    ref = scipy.linalg.pinv(x) @ y
    assert np.linalg.norm(fit.theta_hat - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("setup", ["ii", "iv"])
def test_flat_tail_setups_never_fall_back(setup, monkeypatch):
    # the structured QR interpolates the compressed samples at the top of
    # the full-scale grid, so no repetition pays for a second solve
    calls = count_routes(monkeypatch)
    for n in (700, 1000):
        data = sample_dataset(setup_model(setup, n), n, repetition_seed(0, n, 0))
        assert data.compressed
        del calls[:]
        fit = min_norm_interpolator(data.X, data.Y)
        assert calls == ["lower_tail_qr"]
        resid = np.linalg.norm(data.X @ fit.theta_hat - data.Y) / np.linalg.norm(data.Y)
        assert resid <= 1e-12


def test_min_norm_inexact_cholesky_answer_falls_back(monkeypatch):
    # a full-rank Gram whose refined answer misses the 1e-12 relative
    # residual bound is solved again from X
    rng = np.random.default_rng(29)
    x = rng.standard_normal((8, 30))
    y = rng.standard_normal(8)
    cho_solve = estimators.cholesky_solve

    def inexact(*args, **kwargs):
        return cho_solve(*args, **kwargs) * (1.0 + 1e-9)

    monkeypatch.setattr(estimators, "cholesky_solve", inexact)
    fit = min_norm_interpolator(x, y)
    ref = scipy.linalg.pinv(x) @ y
    assert np.linalg.norm(fit.theta_hat - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(x @ fit.theta_hat - y) <= 1e-12 * np.linalg.norm(y)


def test_min_norm_rejects_nonfinite():
    with pytest.raises(InvalidData):
        min_norm_interpolator(np.array([[np.inf, 1.0]]), np.array([1.0]))


# ------------------------------------------- ridge (the tests' reference)


def test_ridge_identity_closed_form():
    y = np.array([2.0, -1.0])
    lam = 0.5
    assert np.allclose(ridge(np.eye(2), y, lam), y / (1.0 + 2 * lam))


def test_ridge_heavy_shrinkage():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 9))
    y = rng.standard_normal(4)
    assert np.linalg.norm(ridge(x, y, 1e9)) <= 1e-6


def test_ridge_limit_matches_min_norm():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    mn = min_norm_interpolator(x, y).theta_hat
    rd = ridge(x, y, 1e-10)
    assert np.linalg.norm(rd - mn) <= 1e-6 * np.linalg.norm(mn)


@pytest.mark.parametrize(
    "fit",
    [min_norm_interpolator, lambda x, y: lasso_cd(x, y, 0.5)],
    ids=["min_norm", "lasso"],
)
def test_empty_sample_rejected(fit):
    with pytest.raises(InvalidData, match="empty sample"):
        fit(np.empty((0, 3)), np.empty(0))


# ------------------------------------------------------------------ lasso


def test_lasso_rejects_negative_penalty():
    with pytest.raises(ValueError, match="lam >= 0"):
        lasso_cd(np.eye(2), np.ones(2), -0.1)


def test_lasso_zero_penalty_is_ols():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    fit = lasso_cd(x, y, 0.0, tol=1e-10)
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.allclose(fit.theta_hat, ols, atol=1e-7)


def test_lasso_full_shrinkage():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    lam_max = np.abs(x.T @ y).max() / 30
    fit = lasso_cd(x, y, lam_max * 1.0001)
    assert np.all(fit.theta_hat == 0.0)


def test_lasso_orthogonal_design_soft_threshold():
    rng = np.random.default_rng(6)
    n, p = 32, 8
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    x = q * np.sqrt(n)  # X^T X = n I
    y = rng.standard_normal(n)
    lam = 0.15
    fit = lasso_cd(x, y, lam, tol=1e-12)
    z = x.T @ y / n
    oracle = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    assert np.allclose(fit.theta_hat, oracle, atol=1e-10)


def assert_lasso_kkt(x, y, theta, lam, tol):
    grad = x.T @ (y - x @ theta) / x.shape[0]
    zero = theta == 0
    assert np.all(np.abs(grad[zero]) <= lam + tol)
    act = ~zero
    assert np.all(np.abs(grad[act] - lam * np.sign(theta[act])) <= tol)


def test_lasso_kkt_residual():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 80))
    y = rng.standard_normal(50)
    lam = 0.1
    tol = 1e-8
    fit = lasso_cd(x, y, lam, tol=tol)
    assert_lasso_kkt(x, y, fit.theta_hat, lam, tol)


def test_lasso_zero_screen_boundary():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 80))
    y = rng.standard_normal(50)
    lam_max = np.abs(x.T @ y).max() / 50
    above = lasso_cd(x, y, lam_max * (1 + 1e-6))
    assert np.all(above.theta_hat == 0.0)
    assert above.iterations == 0
    assert above.train_loss == float(y @ y) / 50
    tol = 1e-8
    below = lasso_cd(x, y, lam_max * (1 - 1e-3), tol=tol)
    assert np.any(below.theta_hat != 0.0)
    assert below.iterations >= 1
    assert_lasso_kkt(x, y, below.theta_hat, lam_max * (1 - 1e-3), tol)


def test_lasso_zero_screen_leaves_zero_penalty_to_sweep():
    # lam = 0 with y orthogonal to every column: no certificate, one pass
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    fit = lasso_cd(x, np.array([1.0, 1.0, 0.0]), 0.0)
    assert np.all(fit.theta_hat == 0.0)
    assert fit.iterations == 1


def test_lasso_certified_zero_fit_loss_is_response_energy():
    # a certified zero fit takes its loss from y alone, with the bytes of
    # the residual y - X 0, a contiguous array, also when y is strided
    rng = np.random.default_rng(10)
    x = rng.standard_normal((40, 60))
    ys = rng.standard_normal((40, 2))
    y = ys[:, 0].copy()
    for target in (y, ys[:, 1]):
        fit = lasso_cd(x, target, 2.0 * np.abs(x.T @ target).max() / 40)
        assert fit.iterations == 0
        assert fit.theta_hat.shape == (60,) and not fit.theta_hat.any()
        assert fit.norm_l2 == 0.0
        resid = target - x @ np.zeros(60)
        assert fit.train_loss == float(resid @ resid) / 40
    assert lasso_cd(x, y, 1e3).train_loss == float(y @ y) / 40


def test_lasso_convergence_failure_carries_iterate():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 40))
    y = rng.standard_normal(20)
    with pytest.raises(ConvergenceFailure) as err:
        lasso_cd(x, y, 1e-4, tol=1e-14, max_iter=1)
    assert err.value.result.theta_hat.shape == (40,)


# --------------------------------------------------------------- lasso IV


def baseline_model(p=30, k=4):
    eigs = 3.0 / np.arange(1, p + 1)
    endo = np.zeros(p)
    endo[:k] = eigs[:k]
    theta = np.zeros(p)
    theta[: p // 2] = 2.0 / np.sqrt(np.arange(1, p // 2 + 1))
    return EndogenousModel.build(eigs - endo, endo, theta, np.full(p, 0.5))


def test_lasso_iv_deterministic():
    model = baseline_model()
    data = sample_dataset(model, 120, seed=33)
    a = split_sample_lasso_iv(data, endo_idx=[0, 1, 2, 3])
    b = split_sample_lasso_iv(data, endo_idx=[0, 1, 2, 3])
    assert np.array_equal(a.theta_hat, b.theta_hat)


def test_lasso_iv_empty_endo_is_half2_lasso():
    model = baseline_model()
    data = sample_dataset(model, 100, seed=12)
    fit = split_sample_lasso_iv(data, endo_idx=[])
    rng = np.random.default_rng([np.uint64(data.seed), np.uint64(0x51F7)])
    half2 = rng.permutation(100)[50:]
    y2 = data.Y[half2]
    lam = plugin_lambda(float(y2.std()), 50, 30)
    direct = lasso_cd(data.X[half2], y2, lam)
    assert np.allclose(fit.theta_hat, direct.theta_hat)


def test_lasso_iv_singular_second_stage():
    # both endogenous columns are the same covariate, so no instrument set
    # can separate their coefficients
    p, n = 6, 60
    model = EndogenousModel.build(np.ones(p), np.zeros(p), np.zeros(p), noise_sd=1.0)
    rng = np.random.default_rng(3)
    w1 = rng.standard_normal((n, p))
    x = w1.copy()
    x[:, 0] = w1[:, 2]
    x[:, 1] = w1[:, 2]
    xi = rng.standard_normal(n)
    y = x[:, 2] + xi
    from ridgeless_iv.sampling import Dataset

    data = Dataset(
        X=x, Y=y, xi=xi, W1=w1, W2=np.zeros((n, p)), seed=5, model=model,
        true_coef=model.true_coef, signal_eigs=model.signal_eigs,
    )
    with pytest.raises(SingularDesign):
        split_sample_lasso_iv(data, endo_idx=[0, 1])


def shared_instrument_dataset(eigs, seed=3, n=60):
    # two endogenous columns load the same dominant instrument but carry
    # independent measurement noise, so they are not collinear
    from ridgeless_iv.sampling import Dataset

    p = eigs.size
    model = EndogenousModel.build(eigs, np.zeros(p), np.zeros(p), noise_sd=1.0)
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((n, p))
    x = w1.copy()
    x[:, 0] = w1[:, 0] + 0.3 * rng.standard_normal(n)
    x[:, 1] = w1[:, 0] + 0.3 * rng.standard_normal(n)
    xi = rng.standard_normal(n)
    y = x[:, 0] - x[:, 1] + xi
    return Dataset(
        X=x, Y=y, xi=xi, W1=w1, W2=np.zeros((n, p)), seed=5, model=model,
        true_coef=model.true_coef, signal_eigs=model.signal_eigs,
    )


def test_lasso_iv_shared_instrument_repairs():
    # second usable instrument exists, so the dependent fit reroutes onto it
    eigs = np.array([1.0, 0.05, 0.0, 0.0, 0.0, 0.0])
    data = shared_instrument_dataset(eigs)
    a = split_sample_lasso_iv(data, endo_idx=[0, 1])
    b = split_sample_lasso_iv(data, endo_idx=[0, 1])
    assert a.theta_hat.shape == (6,)
    assert np.all(np.isfinite(a.theta_hat))
    assert np.array_equal(a.theta_hat, b.theta_hat)


def test_lasso_iv_instrument_exhaustion():
    # a single usable instrument cannot span two endogenous fits
    eigs = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    data = shared_instrument_dataset(eigs)
    with pytest.raises(SingularDesign, match="ran out"):
        split_sample_lasso_iv(data, endo_idx=[0, 1])


@pytest.fixture
def lasso_calls(monkeypatch):
    # iteration count of every lasso_cd fit the lasso IV runs
    calls = []
    real = estimators.lasso_cd

    def counting(*args, **kwargs):
        fit = real(*args, **kwargs)
        calls.append(fit.iterations)
        return fit

    monkeypatch.setattr(estimators, "lasso_cd", counting)
    return calls


def test_lasso_iv_zero_screen_matches_full_sweep(monkeypatch, lasso_calls):
    # the screen only skips work: with it switched off every lasso runs its
    # coordinate sweep, and the fits must agree bit for bit
    model = setup_model("vii", 100)
    endo_idx = np.flatnonzero(model.whitened_cross)
    data = [sample_dataset(model, 100, seed) for seed in (3, 4, 5)]
    screened = [split_sample_lasso_iv(d, endo_idx).theta_hat for d in data]
    lasso_calls.clear()
    monkeypatch.setattr(estimators, "_zero_is_optimal", lambda corr, lam: False)
    swept = [split_sample_lasso_iv(d, endo_idx).theta_hat for d in data]
    # nothing is certified, so every first-stage column runs lasso_cd, and
    # the second stage once per fit: a first stage that certified columns
    # without asking _zero_is_optimal would fall short here
    assert len(lasso_calls) == len(data) * (endo_idx.size + 1)
    assert all(passes > 0 for passes in lasso_calls)
    for a, b in zip(screened, swept):
        np.testing.assert_array_equal(a, b)


def test_lasso_iv_certified_columns_skip_lasso(lasso_calls):
    # a huge penalty certifies every first-stage column: only the
    # second-stage lasso runs, and it is screened too
    model = baseline_model()
    data = sample_dataset(model, 90, seed=44)
    fit = split_sample_lasso_iv(data, endo_idx=[0, 1, 2], lambda_rule=lambda s, n, p: 10.0)
    assert lasso_calls == [0]
    assert np.all(fit.theta_hat[3:] == 0.0)
    assert np.all(np.isfinite(fit.theta_hat[:3]))


# The first stage scores every column against every instrument at once and
# picks by argmax; references.split_sample_lasso_iv is the column-by-column
# version it replaced, and the two must return the same bytes.


def assert_matches_reference(data, endo_idx, **kwargs):
    got = split_sample_lasso_iv(data, endo_idx, **kwargs)
    want = references.split_sample_lasso_iv(data, endo_idx, **kwargs)
    assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
    assert got.train_loss == want.train_loss and got.norm_l2 == want.norm_l2


@pytest.mark.parametrize("n", [100, 200, 400])
@pytest.mark.parametrize("setup", ["vii", "viii", "ix"])
def test_lasso_iv_matches_reference(setup, n):
    model = setup_model(setup, n)
    endo_idx = np.flatnonzero(model.whitened_cross)
    for seed in (0, 1, 2):
        assert_matches_reference(sample_dataset(model, n, seed), endo_idx)


def test_lasso_iv_student_t_matches_reference():
    model = setup_model("vii", 200)
    endo_idx = np.flatnonzero(model.whitened_cross)
    for seed in (0, 1, 2):
        data = sample_dataset(model, 200, seed, instrument_dist="student_t", dof=5.0)
        assert_matches_reference(data, endo_idx)


def test_lasso_iv_unfresh_top_pick_matches_reference():
    # both columns' lasso fits load instrument 0, so the second column
    # screens, and its top pick, instrument 0, adds no new direction
    eigs = np.array([1.0, 0.05, 0.0, 0.0, 0.0, 0.0])
    for seed in (3, 4, 5):
        assert_matches_reference(shared_instrument_dataset(eigs, seed=seed), [0, 1])


def test_lasso_iv_all_endogenous_matches_reference():
    # no exogenous column is left for the second stage
    data = shared_instrument_dataset(np.array([1.0, 0.6]))
    fit = split_sample_lasso_iv(data, [0, 1])
    assert fit.theta_hat.shape == (2,)
    assert_matches_reference(data, [0, 1])


def test_lasso_iv_first_stage_lasso_matches_reference(lasso_calls):
    # a third of the plug-in penalty sends first-stage columns through
    # lasso_cd, some to nonzero fits
    model = setup_model("vii", 100)
    endo_idx = np.flatnonzero(model.whitened_cross)

    def rule(sigma, n, p):
        return 0.3 * plugin_lambda(sigma, n, p)

    for seed in (0, 1):
        data = sample_dataset(model, 100, seed)
        lasso_calls.clear()
        split_sample_lasso_iv(data, endo_idx, lambda_rule=rule)
        assert sum(passes > 0 for passes in lasso_calls[:-1]) >= 2
        assert_matches_reference(data, endo_idx, lambda_rule=rule)


@pytest.mark.parametrize("setup", ["vii", "slice"])
def test_instrument_features_match_ix_gather(setup):
    # the row gather (the np.ix_ gather on a partial support) picks the
    # same bits as the np.ix_ gather of rows and support columns, in the
    # same C order, which the first stage's sums and products depend on
    model = setup_model("vii", 100) if setup == "vii" else slice_model(20)
    data = sample_dataset(model, 100, seed=8)
    sig = model.signal_eigs
    support = np.flatnonzero(sig > 1e-14 * sig.max())
    assert (support.size == sig.size) == (setup == "vii")
    rows = np.random.default_rng(2).permutation(100)[:50]
    want = data.W1[np.ix_(rows, support)] * np.sqrt(sig[support])[None, :]
    got = estimators._instrument_features(data, rows)
    assert got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_second_stage_slice_matches_ix_gather(monkeypatch):
    # the slices of the exogenous runs (one for vii, three for ix) pick the
    # same bits as the np.ix_ gather, in the same C order, which the
    # second-stage lasso's sums depend on
    seen = []
    real = estimators._lasso_theta

    def recording(x, y, *args, **kwargs):
        seen.append(x)
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(estimators, "_lasso_theta", recording)
    for setup in ("vii", "ix"):
        model = setup_model(setup, 100)
        endo_idx = np.flatnonzero(model.whitened_cross)
        data = sample_dataset(model, 100, seed=8)
        split_sample_lasso_iv(data, endo_idx)
        rng = np.random.default_rng([np.uint64(data.seed), np.uint64(0x51F7)])
        half2 = rng.permutation(100)[50:]
        exo_idx = np.setdiff1d(np.arange(model.p), endo_idx)
        want = data.X[np.ix_(half2, exo_idx)]
        got = seen[-1]
        assert got.shape == want.shape
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_lasso_iv_rejects_nonfinite_design():
    # an exogenous column, whose second-stage slice lasso_cd no longer checks
    data = sample_dataset(baseline_model(), 90, seed=44)
    x = data.X.copy()
    x[:, -1] = np.nan
    with pytest.raises(InvalidData, match="non-finite"):
        split_sample_lasso_iv(dataclasses.replace(data, X=x), endo_idx=[0, 1, 2])


def test_lasso_iv_rejects_too_many_endo():
    model = baseline_model()
    data = sample_dataset(model, 20, seed=1)
    with pytest.raises(ValueError):
        split_sample_lasso_iv(data, endo_idx=list(range(10)))


def test_lasso_iv_custom_penalty_rule():
    model = baseline_model()
    data = sample_dataset(model, 90, seed=44)
    # a huge penalty kills the exogenous part
    fit = split_sample_lasso_iv(data, endo_idx=[0], lambda_rule=lambda s, n, p: 10.0)
    assert np.all(fit.theta_hat[1:] == 0.0)


def test_lasso_iv_rejects_compressed_sample():
    # a flat signal tail of 36 >= n + 1 columns past the latent block is
    # drawn compressed, whose columns are no model coordinates to instrument
    p, n = 40, 20
    eigs = np.r_[3.0, 2.0, 1.0, np.full(p - 3, 0.1)]
    endo = np.zeros(p)
    endo[:2] = 1.0
    w = np.zeros(p)
    w[:2] = 0.5
    model = EndogenousModel.build(eigs, endo, 1.0 / np.arange(1, p + 1), w)
    data = sample_dataset(model, n, seed=8)
    assert data.X.shape == (n, 3 + 1 + n)
    with pytest.raises(InvalidData, match="compressed"):
        split_sample_lasso_iv(data, endo_idx=[0, 1])
