import csv
import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from ridgeless_iv import harness
from ridgeless_iv.cli import main
from ridgeless_iv.harness import (
    CONDITION_FAMILIES,
    ESTIMATOR_NAMES,
    OUTPUT_DIR_ENV,
    SETUP_IDS,
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
    setup_mode,
    setup_model,
)
from ridgeless_iv.sampling import sample_dataset

TINY = ExperimentConfig(setup="i", n_grid=(100, 150), repetitions=2)


# ------------------------------------------------------------ setup registry


def test_setup_registry_covers_all_ids():
    for sid in SETUP_IDS:
        model, endo_idx = setup_model(sid, 100)
        assert model.p == (1000 if sid in ("ii", "iv") else 500)
        assert model.noise_var > 0
        if sid in ("vii", "viii", "ix"):
            assert endo_idx is not None and endo_idx.size == 10
        else:
            assert endo_idx is None


def test_setup_sparse_coefficient_support():
    model, _ = setup_model("v", 100)
    nz = np.flatnonzero(model.true_coef) + 1  # 1-based
    assert nz.tolist() == list(range(1, 100, 5))
    assert np.allclose(model.true_coef[nz - 1], 20.0 / np.sqrt(nz))
    dense, _ = setup_model("i", 100)
    assert np.array_equal(dense.cov.endo_eigs, model.cov.endo_eigs)


def test_setup_head_coefficient_truncates():
    model, _ = setup_model("viii", 100)
    dense, _ = setup_model("vii", 100)
    assert np.array_equal(model.true_coef[:80], dense.true_coef[:80])
    assert np.all(model.true_coef[80:] == 0.0)
    assert np.array_equal(model.cov.endo_eigs, dense.cov.endo_eigs)
    assert np.array_equal(model.cross_cov, dense.cross_cov)


def test_setup_window_indices():
    model, idx = setup_model("vii", 100)
    assert idx.tolist() == list(range(10))
    i = np.arange(1, 11, dtype=float)
    assert np.allclose(model.cross_cov[:10], 2.0 / i)
    assert np.all(model.cross_cov[10:] == 0.0)

    shifted, idx9 = setup_model("ix", 100)
    kstar = shifted.cov.trunc_level
    assert kstar == 75
    assert idx9.tolist() == list(range(2, 10)) + [75, 76]
    # the latent block is extended by the shifted fifth of the window
    assert int(np.count_nonzero(shifted.cov.endo_eigs)) == kstar + 2
    # nothing of the requested correlation is projected away
    assert np.allclose(shifted.requested_whitened, shifted.whitened_cross)
    want = np.zeros(500)
    want[idx9] = 2.0 / (idx9 + 1.0)
    assert np.allclose(shifted.cross_cov, want)


def test_setup_window_small_n_rejected():
    with pytest.raises(InvalidConfig):
        setup_model("ix", 40)  # the shifted fifth would be empty
    with pytest.raises(InvalidConfig):
        setup_model("vii", 9)


def test_setup_modes_and_grids():
    assert setup_mode("i") == "orthogonal"
    assert setup_mode("vi") == "nonorthogonal"
    with pytest.raises(UnknownSetup):
        setup_mode("x")
    with pytest.raises(UnknownSetup):
        setup_model("zero", 100)
    assert default_grid("i") == (100, 200, 300, 400)
    assert default_grid("ii", full_scale=True) == tuple(range(200, 1001, 100))
    assert default_grid("vii", full_scale=True) == tuple(range(100, 1001, 100))
    with pytest.raises(UnknownSetup):
        default_grid("custom")


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


def test_config_json_defaults_and_rejects():
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
    cfg = config_from_json('{"setup": "i", "n_grid": [100.0], "repetitions": 2.0}')
    assert (cfg.n_grid, cfg.repetitions) == ((100,), 2)
    cfg = ExperimentConfig(
        setup="i", n_grid=np.array([100, 200]), repetitions=np.int64(3), base_seed=np.uint32(7)
    )
    assert (cfg.n_grid, cfg.repetitions, cfg.base_seed) == ((100, 200), 3, 7)
    assert all(type(v) is int for v in (*cfg.n_grid, cfg.repetitions, cfg.base_seed))


def test_custom_profile_matches_named_setup():
    profile = {
        "family": "log_poly",
        "scale": 300.0,
        "beta": 2.0,
        "log_factor": math.e / 2,
        "dim": {"kind": "multiple", "value": 5.0},
        "split": "orthogonal",
        "coef": {"kind": "inverse_sqrt", "scale": 20.0},
        "cross": {"kind": "inverse", "scale": 2.0},
    }
    cfg = ExperimentConfig(setup="custom", n_grid=(100,), profile=profile)
    result = run_setup(cfg)
    named = run_setup(ExperimentConfig(setup="i", n_grid=(100,)))
    ours = [r.projected_rmse for r in result.records]
    theirs = [r.projected_rmse for r in named.records[: len(ours)]]
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
    ],
)
def test_custom_profile_validation(profile):
    cfg = ExperimentConfig(setup="custom", n_grid=(100,), profile=profile)
    with pytest.raises(ValueError):
        run_setup(cfg)


def test_model_errors_carry_setup_context():
    cfg = ExperimentConfig(setup="ix", n_grid=(40,))
    with pytest.raises(InvalidConfig, match="setup 'ix' at n=40"):
        run_setup(cfg)


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
    seed = repetition_seed(TINY.base_seed, 150, 1)
    target = sample_dataset(setup_model("i", 150)[0], 150, seed).Y
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
    factory, mode = condition_family("fixed_p_identity")
    assert mode == "exogenous"
    model = factory(100)
    assert model.p == 50 and model.cov.endo_rank() == 0
    factory_i, mode_i = condition_family("i")
    assert mode_i == "orthogonal"
    assert factory_i(100).p == 500
    with pytest.raises(UnknownSetup):
        condition_family("sideways")
    assert set(CONDITION_FAMILIES) == {
        "logpoly_orthogonal",
        "expnoise_orthogonal",
        "logpoly_nonorthogonal",
        "fixed_p_identity",
    }


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
    res = runner.invoke(main, ["ranks", "--matrix", "not-a-setup"])
    assert res.exit_code == 2


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


def test_cli_compare_small_run():
    runner = CliRunner()
    res = runner.invoke(
        main, ["compare", "--setup", "vii", "--n-grid", "100", "--reps", "2"]
    )
    assert res.exit_code == 0
    assert "ridgeless below baseline at every n:" in res.output
