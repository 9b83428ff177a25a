import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from ridgeless_iv import harness
from ridgeless_iv.cli import main
from ridgeless_iv.covariance import EndogenousModel, truncation_level
from ridgeless_iv.cgmt_lab import slice_model
from ridgeless_iv.harness import (
    CONDITION_FAMILIES,
    CONDITION_GRID,
    ESTIMATOR_NAMES,
    OUTPUT_DIR_ENV,
    SETUP_IDS,
    WINDOW_SETUPS,
    ExperimentConfig,
    ExperimentResult,
    InvalidConfig,
    OutputError,
    RunRecord,
    UnknownSetup,
    aggregate_records,
    condition_family,
    config_from_json,
    config_to_json,
    default_grid,
    emit_outputs,
    repetition_seed,
    run_setup,
    setup_model,
)
from ridgeless_iv.metrics import evaluate_conditions
from ridgeless_iv.sampling import sample_dataset

TINY = ExperimentConfig(setup="i", n_grid=(100, 150), repetitions=2)


# ------------------------------------------------------------ setup registry


def test_setup_registry_covers_all_ids():
    for sid in SETUP_IDS:
        model = setup_model(sid, 100)
        assert isinstance(model, EndogenousModel)
        assert model.p == (1000 if sid in ("ii", "iv") else 500)
        assert model.noise_var > 0
        window = np.flatnonzero(model.whitened_cross)
        if sid in WINDOW_SETUPS:
            assert window.size == 10
        else:  # the rotation spreads endogeneity over the whole latent block
            assert np.array_equal(window, np.flatnonzero(model.endo_support))


def test_setup_sparse_coefficient_support():
    model = setup_model("v", 100)
    nz = np.flatnonzero(model.true_coef) + 1  # 1-based
    assert nz.tolist() == list(range(1, 100, 5))
    assert np.allclose(model.true_coef[nz - 1], 20.0 / np.sqrt(nz))
    dense = setup_model("i", 100)
    assert np.array_equal(dense.endo_eigs, model.endo_eigs)


def test_setup_head_coefficient_truncates():
    model = setup_model("viii", 100)
    dense = setup_model("vii", 100)
    assert np.array_equal(model.true_coef[:80], dense.true_coef[:80])
    assert np.all(model.true_coef[80:] == 0.0)
    assert np.array_equal(model.endo_eigs, dense.endo_eigs)
    assert np.array_equal(model.cross_cov, dense.cross_cov)


def test_setup_window_indices():
    model = setup_model("vii", 100)
    assert np.flatnonzero(model.whitened_cross).tolist() == list(range(10))
    i = np.arange(1, 11, dtype=float)
    assert np.allclose(model.cross_cov[:10], 2.0 / i)
    assert np.all(model.cross_cov[10:] == 0.0)

    shifted = setup_model("ix", 100)
    idx9 = np.flatnonzero(shifted.whitened_cross)
    kstar = 75  # the truncation level at n=100
    assert idx9.tolist() == list(range(2, 10)) + [75, 76]
    # the latent block is extended by the shifted fifth of the window
    assert int(np.count_nonzero(shifted.endo_eigs)) == kstar + 2
    # nothing of the requested correlation is projected away
    want = np.zeros(500)
    want[idx9] = 2.0 / (idx9 + 1.0)
    assert np.allclose(shifted.cross_cov, want)


@pytest.mark.parametrize("sid", WINDOW_SETUPS)
def test_setup_window_is_cross_support_on_full_grid(sid):
    # the columns the two-stage baseline instruments are read from the model;
    # they must be the n/10-wide window (its first fifth moved past the
    # truncation level for ix) at every n of the full-scale grid
    for n in default_grid(sid, full_scale=True):
        eigs = harness._family_eigs(harness._PROFILES["iii"], n)
        kstar = truncation_level(eigs, n)
        k = n // 10
        shift = k // 5 if sid == "ix" else 0
        window = list(range(shift, k)) + list(range(kstar, kstar + shift))
        support = np.flatnonzero(setup_model(sid, n).whitened_cross)
        assert support.tolist() == window, n


def test_setup_window_small_n_rejected():
    with pytest.raises(InvalidConfig):
        setup_model("ix", 40)  # the shifted fifth would be empty
    with pytest.raises(InvalidConfig):
        setup_model("vii", 9)


def test_setup_modes_and_grids():
    assert setup_model("i", 100).split_kind == "orthogonal"
    assert setup_model("vi", 100).split_kind == "nonorthogonal"
    with pytest.raises(UnknownSetup):
        setup_model("zero", 100)
    assert default_grid("i") == (100, 200, 300, 400)
    assert default_grid("ii", full_scale=True) == tuple(range(200, 1001, 100))
    assert default_grid("vii", full_scale=True) == tuple(range(100, 1001, 100))
    with pytest.raises(UnknownSetup):
        default_grid("custom")


@pytest.mark.parametrize(
    "source, kind",
    [(sid, "orthogonal" if sid in ("i", "ii", "v") else "nonorthogonal") for sid in SETUP_IDS]
    + [
        ("logpoly_orthogonal", "orthogonal"),
        ("expnoise_orthogonal", "orthogonal"),
        ("logpoly_nonorthogonal", "nonorthogonal"),
        ("fixed_p_identity", "exogenous"),
        ("slice", "orthogonal"),
    ],
)
def test_split_kind_matches_the_profile_split(source, kind):
    # the kind read off the vectors is the split the setup's profile (iii's
    # for vii-ix), the family or the slice makes, at every size they take
    if source == "slice":
        models = [slice_model(p) for p in range(2, 9)]
    elif source in CONDITION_FAMILIES:
        models = [CONDITION_FAMILIES[source](n) for n in CONDITION_GRID]
    else:
        models = [setup_model(source, n) for n in range(100, 1001, 100)]
    assert [model.split_kind for model in models] == [kind] * len(models)


# ------------------------------------------------------------------- configs


@pytest.mark.parametrize(
    "kwargs",
    [
        {"setup": "nope", "n_grid": (100,)},
        {"setup": "i", "n_grid": ()},
        {"setup": "i", "n_grid": (200, 100)},
        {"setup": "i", "n_grid": (100, 100)},
        {"setup": "i", "n_grid": (0,)},
        {"setup": "i", "n_grid": (100,), "repetitions": 0},
        {"setup": "i", "n_grid": (100,), "base_seed": -1},
        {"setup": "i", "n_grid": (100,), "estimators": ()},
        {"setup": "i", "n_grid": (100,), "estimators": ("ridgeless", "ridgeless")},
        {"setup": "i", "n_grid": (100,), "estimators": ("ols",)},
        {"setup": "i", "n_grid": (100,), "estimators": ("lasso_iv",)},
        {"setup": "i", "n_grid": (100,), "instrument_dist": "cauchy"},
        {"setup": "i", "n_grid": (100,), "instrument_dist": "student_t"},
        {"setup": "i", "n_grid": (100,), "instrument_dist": "student_t", "dof": 2.0},
        {"setup": "custom", "n_grid": (100,)},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_accepts_window_baseline():
    cfg = ExperimentConfig(setup="ix", n_grid=(100,), estimators=ESTIMATOR_NAMES)
    assert cfg.estimators == ("ridgeless", "lasso_iv")


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        setup="vii",
        n_grid=(100, 200),
        repetitions=5,
        base_seed=11,
        estimators=("ridgeless", "lasso_iv"),
        output_dir="out",
    )
    assert config_from_json(config_to_json(cfg)) == cfg

    custom = ExperimentConfig(
        setup="custom",
        n_grid=(100,),
        profile={"family": "log_poly", "scale": 300.0, "beta": 2.0},
    )
    assert config_from_json(config_to_json(custom)) == custom


def test_config_json_defaults_and_rejects(tmp_path):
    cfg = config_from_json('{"setup": "iii"}')
    assert cfg.n_grid == default_grid("iii")
    assert cfg.repetitions == 30
    with pytest.raises(InvalidConfig):
        config_from_json('{"setup": "i", "grid": [100]}')
    with pytest.raises(InvalidConfig):
        config_from_json("[1, 2]")
    with pytest.raises(InvalidConfig):
        config_from_json("{not json")
    with pytest.raises(InvalidConfig):
        config_from_json('{"n_grid": [100]}')
    with pytest.raises(InvalidConfig):
        config_from_json('{"setup": "custom", "profile": {"family": "log_poly", "scale": 1, "beta": 1}}')
    # wrongly typed values are validation errors, not crashes
    for doc in (
        '{"setup": "i", "n_grid": 100}',
        '{"setup": "i", "estimators": 5}',
        '{"setup": "i", "repetitions": [2]}',
    ):
        with pytest.raises(InvalidConfig):
            config_from_json(doc)
    # fields that only apply elsewhere are rejected, not silently ignored
    with pytest.raises(InvalidConfig):
        config_from_json('{"setup": "i", "profile": {"family": "log_poly", "scale": 1, "beta": 1}}')
    with pytest.raises(InvalidConfig):
        config_from_json('{"setup": "i", "dof": 5}')
    # counts and seeds are integers: no truncation of floats, no bools or strings
    for doc in (
        '{"setup": "i", "repetitions": 2.7}',
        '{"setup": "i", "n_grid": [100.9, 200]}',
        '{"setup": "i", "repetitions": "3"}',
        '{"setup": "i", "base_seed": true}',
        '{"setup": "i", "n_grid": [true, 2]}',
        '{"setup": "i", "instrument_dist": "student_t", "dof": "5"}',
        '{"setup": "i", "instrument_dist": "student_t", "dof": true}',
    ):
        with pytest.raises(InvalidConfig):
            config_from_json(doc)
    # every value is type-checked before a model is built: strings, bools
    # and maps where numbers belong, a non-finite dof (1e309 parses as inf)
    custom = '{"setup": "custom", "n_grid": [100], "profile": %s}'
    log_poly = custom % '{"family": "log_poly", "beta": 2, %s}'
    for doc in (
        '{"setup": "i", "output_dir": 5}',
        '{"setup": "i", "instrument_dist": "student_t", "dof": 1e309}',
        log_poly % '"scale": "300"',
        log_poly % '"scale": true',
        log_poly % '"scale": 300, "dim": 5',
        log_poly % '"scale": 300, "noise_sd": "1"',
        log_poly % '"scale": 300, "coef": {"kind": "inverse_sqrt", "scale": "2"}',
        log_poly % '"scale": 300, "split": ["orthogonal"]',
        custom % '{"family": "explicit", "values": [1, "0"]}',
        custom % '[1]',
    ):
        with pytest.raises(InvalidConfig):
            config_from_json(doc)
    path = tmp_path / "typed.json"
    path.write_text('{"setup": "i", "n_grid": [100], "output_dir": 5}')
    res = CliRunner().invoke(main, ["simulate", "--config", str(path)])
    assert res.exit_code == 2 and "output_dir" in res.output
    cfg = config_from_json('{"setup": "i", "n_grid": [100.0], "repetitions": 2.0}')
    assert (cfg.n_grid, cfg.repetitions) == ((100,), 2)
    cfg = ExperimentConfig(
        setup="i", n_grid=np.array([100, 200]), repetitions=np.int64(3), base_seed=np.uint32(7)
    )
    assert (cfg.n_grid, cfg.repetitions, cfg.base_seed) == ((100, 200), 3, 7)
    assert all(type(v) is int for v in (*cfg.n_grid, cfg.repetitions, cfg.base_seed))


@pytest.mark.parametrize(
    "setup, profile",
    [
        (
            "i",
            {
                "family": "log_poly",
                "scale": 300.0,
                "beta": 2.0,
                "log_factor": math.e / 2,
                "dim": {"kind": "multiple", "value": 5.0},
                "split": "orthogonal",
                "coef": {"kind": "inverse_sqrt", "scale": 20.0},
                "cross": {"kind": "inverse", "scale": 2.0},
            },
        ),
        (
            # the nonorthogonal split, and a flat tail sampled compressed
            "iv",
            {
                "family": "exp_plus_noise",
                "tau": 2.0,
                "scale": 10.0,
                "split": "nonorthogonal",
                "alpha": 1.01,
                "coef": {"kind": "inverse_sqrt", "scale": 20.0},
                "cross": {"kind": "exp_decay", "scale": 3.0, "tau": 4.0},
            },
        ),
    ],
    ids=["i", "iv"],
)
def test_custom_profile_matches_named_setup(setup, profile):
    grid = (100, 400)
    for n in grid:
        ours = harness._custom_model(profile, n)
        theirs = setup_model(setup, n)
        for name in ("signal_eigs", "endo_eigs", "true_coef", "whitened_cross"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        assert (ours.noise_var, ours.split_kind) == (theirs.noise_var, theirs.split_kind)
    result = run_setup(ExperimentConfig(setup="custom", n_grid=grid, profile=profile))
    named = run_setup(ExperimentConfig(setup=setup, n_grid=grid))
    ours = [(r.n, r.projected_rmse) for r in result.records]
    theirs = [(r.n, r.projected_rmse) for r in named.records]
    assert ours == theirs  # same model, same seeds, bitwise-equal runs


@pytest.mark.parametrize(
    "profile",
    [
        {"family": "mystery"},
        {"family": "log_poly", "scale": 1.0, "beta": 1.0, "extra": 1},
        {"family": "log_poly", "beta": 1.0},
        {"family": "explicit"},
        {"family": "log_poly", "scale": 1.0, "beta": 1.0, "split": "diagonal"},
        {"family": "log_poly", "scale": 1.0, "beta": 1.0, "rotation": "fourier"},
        {"family": "log_poly", "scale": 1.0, "beta": 1.0, "coef": {"kind": "ones"}},
        {"family": "log_poly", "scale": 1.0, "beta": 1.0, "coef": {"kind": "inverse_sqrt", "width": 2}},
        # an alpha the orthogonal split would ignore
        {"family": "log_poly", "scale": 300, "beta": 2, "split": "orthogonal", "alpha": 0.5},
        # a dim rule with a missing or an unknown key
        {"family": "log_poly", "scale": 300, "beta": 2, "dim": {"kind": "multiple"}},
        {"family": "log_poly", "scale": 300, "beta": 2,
         "dim": {"kind": "multiple", "value": 5, "extra": 1}},
        # p = 2500.9 is no dimension, not p = 2500
        {"family": "log_poly", "scale": 300, "beta": 2,
         "dim": {"kind": "fixed", "value": 2500.9}},
        # an exp_decay cross rule that vanishes (tau 0) or grows (tau < 0)
        {"family": "log_poly", "scale": 300, "beta": 2, "cross": {"kind": "exp_decay", "tau": 0}},
        {"family": "log_poly", "scale": 300, "beta": 2, "cross": {"kind": "exp_decay", "tau": -3}},
    ],
)
def test_custom_profile_validation(profile):
    cfg = ExperimentConfig(setup="custom", n_grid=(100,), profile=profile)
    with pytest.raises(ValueError):
        run_setup(cfg)


_EXP_NOISE = {"family": "exp_plus_noise", "tau": 2, "scale": 10}
_LOG_POLY = {"family": "log_poly", "scale": 300, "beta": 2}


@pytest.mark.parametrize(
    "profile, key",
    [
        # spectrum keys of another family
        ({**_EXP_NOISE, "beta": 7}, "beta"),
        ({**_EXP_NOISE, "log_factor": 3}, "log_factor"),
        ({**_EXP_NOISE, "values": [1]}, "values"),
        # p of an explicit spectrum is the count of its values
        ({"family": "explicit", "values": [3, 2, 1], "dim": {"kind": "fixed", "value": 5}}, "dim"),
        # tau is read by the exp_decay cross rule only
        ({**_LOG_POLY, "cross": {"kind": "inverse", "scale": 2, "tau": 3}}, "tau"),
        ({**_LOG_POLY, "coef": {"kind": "inverse_sqrt", "tau": 3}}, "tau"),
        ({**_LOG_POLY, "coef": {"kind": "sparse_inverse_sqrt", "scale": 20, "tau": 3}}, "tau"),
        ({**_LOG_POLY, "cross": {"kind": "none", "scale": 2}}, "scale"),
    ],
    ids=["beta", "log_factor", "values", "explicit-dim", "inverse-tau", "coef-tau",
         "sparse-coef-tau", "none-scale"],
)
def test_custom_profile_rejects_unread_keys(profile, key):
    # each of these built the same model as the profile without the key
    with pytest.raises(InvalidConfig, match=key):
        harness._custom_model(profile, 100)


# p, latent rank, signal and latent traces, |true_coef|, |whitened_cross| and
# noise_var of each named setup, taken from the builders before setups i-vi
# became profiles; a drift in the shared builder moves them
_PINNED_MODELS = {
    ("i", 100): (500, 75, 11.398059766884714, 512.6518456461504,
                 52.1260910868656, 1.6089203332828412, 10.354498555403875),
    ("i", 400): (2000, 270, 7.6291804127065195, 521.1817791696429,
                 57.19569250777643, 1.5238559058854306, 9.288547287607626),
    ("ii", 100): (1000, 24, 0.00452574581466357, 15.414955072529565,
                  54.71917711570723, 1.9811784218958646, 15.700271757543154),
    ("ii", 400): (8000, 44, 8.242268595646411e-07, 15.414940825602573,
                  61.85297077509349, 1.8391064401801576, 13.529249993248525),
    ("iii", 100): (500, 75, 16.29384688490748, 507.75605852812737,
                   52.1260910868656, 1.6089203332828412, 10.354498555403875),
    ("iii", 400): (2000, 270, 8.856361441625786, 519.9545981407238,
                   57.19569250777643, 1.5238559058854306, 9.288547287607626),
    ("iv", 100): (1000, 24, 0.15173742389585543, 15.267743394448377,
                  54.71917711570723, 1.9811784218958646, 15.700271757543154),
    ("iv", 400): (8000, 44, 0.036297033532625374, 15.378644616296807,
                  61.85297077509349, 1.8391064401801576, 13.529249993248525),
    ("v", 100): (500, 75, 11.398059766884714, 512.6518456461504,
                 25.721222128664095, 1.6089203332828412, 10.354498555403875),
    ("v", 400): (2000, 270, 7.6291804127065195, 521.1817791696429,
                 25.721222128664095, 1.5238559058854306, 9.288547287607626),
    ("vi", 100): (500, 75, 16.29384688490748, 507.75605852812737,
                  25.721222128664095, 1.6089203332828412, 10.354498555403875),
    ("vi", 400): (2000, 270, 8.856361441625786, 519.9545981407238,
                  25.721222128664095, 1.5238559058854306, 9.288547287607626),
    ("vii", 100): (500, 75, 16.29384688490748, 507.75605852812737,
                   52.1260910868656, 0.3872546958566314, 0.5998647978520484),
    ("vii", 400): (2000, 270, 8.856361441625786, 519.9545981407238,
                   57.19569250777643, 0.6848523321776151, 1.8760908675564738),
    ("viii", 100): (500, 75, 16.29384688490748, 507.75605852812737,
                    44.56671080053145, 0.3872546958566314, 0.5998647978520484),
    ("viii", 400): (2000, 270, 8.856361441625786, 519.9545981407238,
                    50.38689649857001, 0.6848523321776151, 1.8760908675564738),
    ("ix", 100): (500, 77, 16.071621628697535, 507.97828378433735,
                  52.1260910868656, 0.36785241409403235, 0.5412615942192298),
    ("ix", 400): (2000, 278, 8.706768535286287, 520.1041910470633,
                  57.19569250777643, 0.6095837309503015, 1.4863693001571583),
    ("logpoly_nonorthogonal", 100): (500, 75, 11.449324951449334, 512.6005804615857,
                                     52.1260910868656, 1.6089203332828412,
                                     10.354498555403875),
}


@pytest.mark.parametrize("name, n", list(_PINNED_MODELS))
def test_named_setup_models_pinned(name, n):
    model = condition_family(name)(n)
    p, rank, *floats = _PINNED_MODELS[(name, n)]
    assert (model.p, model.endo_rank()) == (p, rank)
    got = (
        model.signal_eigs.sum(),
        model.endo_eigs.sum(),
        np.linalg.norm(model.true_coef),
        np.linalg.norm(model.whitened_cross),
        model.noise_var,
    )
    np.testing.assert_allclose(got, floats, rtol=1e-12)


# p, latent rank, first and last total eigenvalue, total and signal traces of
# custom profiles that leave keys at their defaults: no dim, no log_factor,
# no noise, a zero noise floor, an explicit list
_PINNED_SPECTRA = {
    "log_poly-defaults": (
        {"family": "log_poly", "scale": 300, "beta": 2}, 100,
        (500, 75, 624.4106943016824, 0.01552546261391453,
         968.0585374340542, 21.055225759118887),
    ),
    "log_poly-fixed-dim": (
        {"family": "log_poly", "scale": 300, "beta": 2, "log_factor": 2,
         "dim": {"kind": "fixed", "value": 700}}, 100,
        (700, 65, 156.1026735754206, 0.002495445668021721,
         242.63345677999996, 6.467977508601187),
    ),
    "exp_plus_noise-defaults": (
        {"family": "exp_plus_noise", "tau": 2, "scale": 10}, 100,
        (1000, 24, 6.06531113711931, 4.539992976248485e-06,
         15.419480818344232, 0.00452574581466357),
    ),
    "exp_plus_noise-leaked": (
        {"family": "exp_plus_noise", "tau": 2, "scale": 10,
         "split": "nonorthogonal", "alpha": 1.5}, 150,
        (1837, 29, 6.065306988827601, 3.917012672732149e-07,
         15.415660380595966, 0.009106803318024836),
    ),
    "exp_plus_noise-zero-noise": (
        {"family": "exp_plus_noise", "tau": 50, "scale": 10, "noise": "zero"}, 20,
        (89, 0, 9.801986733067553, 1.686381472685955,
         411.5379730405514, 411.5379730405514),
    ),
    "explicit": (
        {"family": "explicit", "values": [5, 3, 1, 1, 0.5, 0.5, 0.25, 0.1] + [0.01] * 40}, 10,
        (48, 8, 5.0, 0.01, 11.749999999999998, 0.4),
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_SPECTRA))
def test_custom_profile_spectra_pinned(case):
    profile, n, (p, rank, *floats) = _PINNED_SPECTRA[case]
    model = harness._custom_model(profile, n)
    assert (model.p, model.endo_rank()) == (p, rank)
    total = model.total_eigs
    got = (total[0], total[-1], total.sum(), model.signal_eigs.sum())
    np.testing.assert_allclose(got, floats, rtol=1e-12)


def test_model_errors_carry_setup_context():
    cfg = ExperimentConfig(setup="ix", n_grid=(40,))
    with pytest.raises(InvalidConfig, match="setup 'ix' at n=40"):
        run_setup(cfg)


def test_one_value_profile_with_a_cross_rule_exits_2(tmp_path):
    # one coordinate has no truncation level, and could not be rotated
    profile = {"family": "explicit", "values": [1.0], "cross": {"kind": "inverse"}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"setup": "custom", "n_grid": [100], "profile": profile}))
    args = ["simulate", "--config", str(path), "--output-dir", str(tmp_path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output


# --------------------------------------------------------------------- runs


def test_repetition_seed_frozen_values():
    assert repetition_seed(0, 100, 0) == 13859950222651490150
    assert repetition_seed(0, 100, 1) == 16330778372826417715
    assert repetition_seed(7, 300, 12) == 3078678330219247324
    seeds = {repetition_seed(0, n, r) for n in (100, 150) for r in range(4)}
    assert len(seeds) == 8


def test_run_records_order_and_shape():
    result = run_setup(TINY)
    keys = [(r.n, r.repetition, r.estimator) for r in result.records]
    assert keys == [(100, 0, "ridgeless"), (100, 1, "ridgeless"),
                    (150, 0, "ridgeless"), (150, 1, "ridgeless")]
    assert all(r.setup == "i" for r in result.records)
    assert all(np.isfinite(r.projected_rmse) and r.projected_rmse >= 0 for r in result.records)
    assert result.elapsed_seconds > 0
    assert result.started  # ISO stamp, content not pinned


def test_run_deterministic_across_workers():
    serial = run_setup(TINY, max_workers=1)
    pooled = run_setup(TINY, max_workers=4)
    assert serial.records == pooled.records
    assert serial.aggregates == pooled.aggregates


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_repetition_is_named(workers, monkeypatch):
    clean = run_setup(TINY)
    seed = repetition_seed(TINY.base_seed, 150, 1)
    target = sample_dataset(setup_model("i", 150), 150, seed).Y
    fit = harness.min_norm_interpolator

    def flaky(x, y):
        if np.array_equal(y, target):
            raise _Boom("solver blew up")
        return fit(x, y)

    monkeypatch.setattr(harness, "min_norm_interpolator", flaky)
    with pytest.raises(_Boom) as info:
        run_setup(TINY, max_workers=workers)
    assert str(info.value) == f"setup 'i' at n=150, rep 1, seed {seed}: solver blew up"
    assert isinstance(info.value.__cause__, _Boom)
    # the tasks before the failing one, in task order, as a clean run has them
    before = tuple(r for r in clean.records if (r.n, r.repetition) < (150, 1))
    assert len(before) == 3
    assert info.value.records == before


def test_lasso_iv_baseline_values_pinned():
    # setup vii answers of the two-stage baseline; a change to the lasso
    # screen, sweep or first-stage rerouting must not move them silently
    cfg = ExperimentConfig(
        setup="vii", n_grid=(100,), repetitions=2, estimators=("ridgeless", "lasso_iv")
    )
    got = [r.projected_rmse for r in run_setup(cfg).records if r.estimator == "lasso_iv"]
    np.testing.assert_allclose(got, [244.74077360421506, 1508.241063412887], rtol=1e-9)


def test_run_aggregates_recomputable():
    result = run_setup(TINY)
    again = aggregate_records(result.records, TINY.estimators)
    assert again == result.aggregates
    vals = [r.projected_rmse for r in result.records if r.n == 100]
    row = result.aggregates[0]
    assert row.mean == pytest.approx(sum(vals) / len(vals), abs=0.0, rel=1e-15)
    assert row.stdev == pytest.approx(float(np.std(vals, ddof=1)))
    assert row.stderr == pytest.approx(row.stdev / math.sqrt(len(vals)))
    assert result.mean_rmse(100, "ridgeless") == row.mean
    with pytest.raises(KeyError):
        result.mean_rmse(100, "lasso_iv")


def test_repetition_independence():
    # dropping the last repetition reproduces a shorter run exactly
    four = run_setup(ExperimentConfig(setup="i", n_grid=(100,), repetitions=4))
    three = run_setup(ExperimentConfig(setup="i", n_grid=(100,), repetitions=3))
    kept = tuple(r for r in four.records if r.repetition < 3)
    assert kept == three.records
    assert aggregate_records(kept, ("ridgeless",)) == three.aggregates


def test_student_t_run_differs_from_gaussian():
    gauss = run_setup(TINY)
    heavy = run_setup(
        ExperimentConfig(setup="i", n_grid=(100, 150), repetitions=2,
                         instrument_dist="student_t", dof=5.0)
    )
    assert all(
        a.projected_rmse != b.projected_rmse for a, b in zip(gauss.records, heavy.records)
    )


# ----------------------------------------------------------------- emission


def test_emit_csv_golden_header_and_round_trip(tmp_path):
    result = run_setup(TINY)
    path = emit_outputs(result, "csv", str(tmp_path))[0]
    raw = open(path, "rb").read()
    assert raw.startswith(b"setup,n,rep,estimator,projected_rmse\r\n")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # 17 significant digits bring every field back exactly (seed is not written)
    back = tuple(
        RunRecord(row["setup"], int(row["n"]), int(row["rep"]), row["estimator"],
                  float(row["projected_rmse"]), rec.seed)
        for row, rec in zip(rows, result.records)
    )
    assert back == result.records
    assert aggregate_records(back, ("ridgeless",)) == result.aggregates


def test_emit_csv_bytes_stable_across_workers(tmp_path):
    a = emit_outputs(run_setup(TINY, max_workers=1), "csv", str(tmp_path / "a"))[0]
    b = emit_outputs(run_setup(TINY, max_workers=4), "csv", str(tmp_path / "b"))[0]
    assert open(a, "rb").read() == open(b, "rb").read()


def test_emit_plotdata_layout(tmp_path):
    cfg = ExperimentConfig(
        setup="vii", n_grid=(100,), repetitions=2, estimators=("ridgeless", "lasso_iv")
    )
    result = run_setup(cfg)
    paths = emit_outputs(result, "plotdata", str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "plot_vii_ridgeless.csv",
        "plot_vii_lasso_iv.csv",
    ]
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "n,mean,stderr"
    n, mean, stderr = lines[1].split(",")
    assert int(n) == 100
    assert float(mean) == result.mean_rmse(100, "ridgeless")
    assert float(stderr) == result.aggregates[0].stderr


def test_emit_rejects_empty_and_unwritable(tmp_path):
    result = run_setup(TINY)
    empty = ExperimentResult(
        config=TINY, records=(), aggregates=(), started="", elapsed_seconds=0.0
    )
    with pytest.raises(ValueError):
        emit_outputs(empty, "csv", str(tmp_path))
    with pytest.raises(ValueError):
        emit_outputs(result, "xml", str(tmp_path))
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OutputError):
        emit_outputs(result, "csv", str(blocker))


def test_emit_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    result = run_setup(TINY)
    path = emit_outputs(result, "csv")[0]
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.exists(path)


# ------------------------------------------------------- condition families


def test_condition_family_lookup():
    model = condition_family("fixed_p_identity")(100)
    assert model.p == 50 and model.endo_rank() == 0
    assert model.split_kind == "exogenous"
    model_i = condition_family("i")(100)
    assert model_i.split_kind == "orthogonal"
    assert model_i.p == 500
    with pytest.raises(UnknownSetup):
        condition_family("sideways")
    assert set(CONDITION_FAMILIES) == {
        "logpoly_orthogonal",
        "expnoise_orthogonal",
        "logpoly_nonorthogonal",
        "fixed_p_identity",
    }


def test_condition_families_keep_their_modes():
    # each family's mode is its models' split kind, the same at every n
    expect = {
        "logpoly_orthogonal": "orthogonal",
        "expnoise_orthogonal": "orthogonal",
        "logpoly_nonorthogonal": "nonorthogonal",
        "fixed_p_identity": "exogenous",
    }
    for name, mode in expect.items():
        report = evaluate_conditions(CONDITION_FAMILIES[name], (100, 150, 200))
        assert report.mode == mode, name


# ---------------------------------------------------------------------- cli


def _write_config(tmp_path, **overrides):
    doc = {"setup": "i", "n_grid": [100, 150], "repetitions": 2}
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_simulate_writes_files(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "runs_i.csv").exists()
    assert (out / "plot_i_ridgeless.csv").exists()
    assert "mean=" in res.output


def test_cli_simulate_seed_override_changes_bytes(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, None), (b, None), (c, 99)):
        args = ["simulate", "--config", cfg, "--output-dir", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert runner.invoke(main, args).exit_code == 0
    base = (a / "runs_i.csv").read_bytes()
    assert base == (b / "runs_i.csv").read_bytes()
    assert base != (c / "runs_i.csv").read_bytes()


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--config", str(tmp_path / "absent.json")])
    assert res.exit_code == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"setup": "nope", "n_grid": [100]}')
    res = runner.invoke(main, ["simulate", "--config", str(bad)])
    assert res.exit_code == 2
    # a profile error found only when the model is built, not a traceback
    profile = {"family": "log_poly", "scale": 300, "beta": 2, "dim": {"kind": "multiple"}}
    cfg = _write_config(tmp_path, setup="custom", profile=profile)
    res = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", str(tmp_path)])
    assert res.exit_code == 2 and "dim rule" in res.output
    profile = {"family": "exp_plus_noise", "tau": 2, "scale": 10, "beta": 7}
    cfg = _write_config(tmp_path, setup="custom", profile=profile)
    res = runner.invoke(main, ["simulate", "--config", cfg, "--output-dir", str(tmp_path)])
    assert res.exit_code == 2 and "beta" in res.output
    res = runner.invoke(main, ["ranks", "--matrix", "not-a-setup"])
    assert res.exit_code == 2
    # with n > p every primary draw is infeasible, so no threshold grid exists
    res = runner.invoke(main, ["cgmt-check", "--n", "3", "--p", "2", "--reps", "4"])
    assert res.exit_code == 2 and "error: no feasible primary" in res.output


def test_dim_rule_ceiling(tmp_path):
    # a dim rule asking for more than 10^7 coordinates is a config error, not
    # a MemoryError: power 7 at n = 40 would need a 1.19 TiB eigenvalue vector
    profile = {"family": "log_poly", "scale": 300, "beta": 2, "dim": {"kind": "power", "value": 7}}
    cfg = _write_config(tmp_path, setup="custom", profile=profile, n_grid=[40])
    res = CliRunner().invoke(main, ["simulate", "--config", cfg, "--output-dir", str(tmp_path)])
    assert res.exit_code == 2 and "error: " in res.output and "dim rule" in res.output
    # rejected before anything of size p is allocated
    for rule in ({"kind": "power", "value": 3}, {"kind": "power", "value": 400},
                 {"kind": "power", "value": 10**9},
                 {"kind": "multiple", "value": 1e305}, {"kind": "fixed", "value": 10**7 + 1}):
        tracemalloc.start()
        with pytest.raises(InvalidConfig, match="dim rule"):
            harness._custom_model({**profile, "dim": rule}, 1000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, rule
    # the largest named setups (ii and iv at n = 1000) stay far below it
    assert harness._dimension({"kind": "power", "value": 1.5}, 1000) == 31622


def test_cli_ranks_matrix_file(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.eye(3), delimiter=",")
    runner = CliRunner()
    res = runner.invoke(main, ["ranks", "--matrix", str(mat)])
    assert res.exit_code == 0
    assert "r=3" in res.output and "R=3" in res.output
    rect = tmp_path / "r.csv"
    np.savetxt(rect, np.ones((2, 3)), delimiter=",")
    assert runner.invoke(main, ["ranks", "--matrix", str(rect)]).exit_code == 2
    # a CSV is outside input: an asymmetric or indefinite matrix has no
    # effective rank, and non-finite entries are rejected
    for name, bad in (
        ("asym", [[1.0, 2.0], [0.0, 1.0]]),
        ("indef", [[1.0, 0.0], [0.0, -0.5]]),
        ("nan", [[1.0, np.nan], [np.nan, 1.0]]),
    ):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, np.array(bad), delimiter=",")
        res = runner.invoke(main, ["ranks", "--matrix", str(path)])
        assert res.exit_code == 2, name
        assert "r=" not in res.output


def test_cli_ranks_setup_reference():
    runner = CliRunner()
    res = runner.invoke(main, ["ranks", "--matrix", "i@100"])
    assert res.exit_code == 0
    assert res.output.count("r=") == 3  # total, signal, latent


def test_cli_conditions_table():
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["conditions", "--profile", "fixed_p_identity",
         "--n-grid", "100", "--n-grid", "200", "--n-grid", "300"],
    )
    assert res.exit_code == 0
    assert "eff_dim: not decreasing" in res.output
    res = runner.invoke(main, ["conditions", "--profile", "mystery"])
    assert res.exit_code == 2


def test_cli_bounds_reports_both_ceilings():
    runner = CliRunner()
    res = runner.invoke(main, ["bounds", "--setup", "iii", "--n", "100", "--delta", "0.1"])
    assert res.exit_code == 0
    assert "norm.norm_bound=" in res.output
    assert "risk.rmse_bound=" in res.output
    res = runner.invoke(main, ["bounds", "--setup", "iii", "--n", "100", "--delta", "2.0"])
    assert res.exit_code == 2


def test_cli_cgmt_check_small_run():
    runner = CliRunner()
    res = runner.invoke(
        main, ["cgmt-check", "--n", "3", "--p", "4", "--reps", "40", "--grid-size", "4"]
    )
    assert res.exit_code == 0
    assert "violations:" in res.output
    res = runner.invoke(main, ["cgmt-check", "--n", "3", "--p", "4", "--reps", "0"])
    assert res.exit_code == 2
    # a zero-row instance or an empty threshold grid checks nothing
    for bad in (["--n", "0", "--reps", "4"], ["--n", "3", "--reps", "4", "--grid-size", "0"]):
        res = runner.invoke(main, ["cgmt-check", "--p", "4", *bad])
        assert res.exit_code == 2


def test_cli_compare_small_run():
    runner = CliRunner()
    res = runner.invoke(
        main, ["compare", "--setup", "vii", "--n-grid", "100", "--reps", "2"]
    )
    assert res.exit_code == 0
    assert "ridgeless below baseline at every n:" in res.output
