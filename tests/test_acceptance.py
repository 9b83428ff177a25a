"""Acceptance gate: twelve end-to-end criteria at pinned tolerances, plus
the interpolation check on the named-setup designs.

Each test prints one line with the measured values before asserting, so a
run of this module doubles as a numerical report.  Criteria 5-8 are Monte
Carlo trend checks through the full harness; they are seeded and were
verified stable across seeds before the thresholds were pinned.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

from ridgeless_iv.cgmt_lab import slice_model, tail_dominance_check
from ridgeless_iv.cli import main
from references import joint_min_eigenvalue, norm_effective_ranks, ridge
from ridgeless_iv.covariance import EndogeneityTooStrong, truncation_level
from ridgeless_iv.estimators import min_norm_interpolator
from ridgeless_iv.harness import (
    CONDITION_FAMILIES,
    SETUP_IDS,
    ExperimentConfig,
    repetition_seed,
    _family_eigs,
    run_setup,
    setup_model,
)
from ridgeless_iv.metrics import (
    effective_ranks,
    evaluate_conditions,
    norm_upper_bound,
)
from ridgeless_iv.sampling import sample_dataset


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


# --------------------------------------------------------------------------


def test_criterion_01_interpolation_suite():
    rng = np.random.default_rng(20260825)
    t0 = time.perf_counter()
    max_resid = 0.0
    min_norm_gap = math.inf
    max_ridge_diff = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        p = int(rng.integers(2 * n, 201))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = min_norm_interpolator(x, y)
        max_resid = max(
            max_resid, float(np.linalg.norm(y - x @ fit.theta_hat)) / float(np.linalg.norm(y))
        )
        null = scipy.linalg.null_space(x)
        coefs = rng.standard_normal((null.shape[1], 100)) * 10.0 ** rng.uniform(-3, 1, 100)
        rivals = fit.theta_hat[:, None] + null @ coefs
        gap = float(np.linalg.norm(rivals, axis=0).min()) - fit.norm_l2
        min_norm_gap = min(min_norm_gap, gap / max(fit.norm_l2, 1e-300))
        ridged = ridge(x, y, 1e-10)
        max_ridge_diff = max(
            max_ridge_diff,
            float(np.linalg.norm(ridged - fit.theta_hat)) / fit.norm_l2,
        )
    elapsed = time.perf_counter() - t0
    ok = (
        max_resid <= 1e-8
        and min_norm_gap >= -1e-12
        and max_ridge_diff <= 1e-6
        and elapsed < 30.0
    )
    _report(
        1,
        "interpolation and optimality",
        ok,
        f"200 instances, max rel residual {max_resid:.2e}, "
        f"worst rival-norm gap {min_norm_gap:.2e}, "
        f"max ridge(1e-10) rel diff {max_ridge_diff:.2e}, {elapsed:.1f} s",
    )
    assert ok


def test_interpolation_on_named_setup_designs():
    # criterion 01 draws i.i.d. Gaussian designs; the named setups have
    # Gram condition numbers up to ~5e9 (setup ii at n=400), and the
    # flat-tailed setups ii and iv run to n=1000 on the full-scale grid
    resid = {}
    cases = [(sid, n) for sid in SETUP_IDS for n in (100, 400)]
    cases += [(sid, n) for sid in ("ii", "iv") for n in (700, 1000)]
    for sid, n in cases:
        model = setup_model(sid, n)
        data = sample_dataset(model, n, repetition_seed(0, n, 0))
        fit = min_norm_interpolator(data.X, data.Y)
        resid[sid, n] = float(np.linalg.norm(data.X @ fit.theta_hat - data.Y)) / float(
            np.linalg.norm(data.Y)
        )
    worst = max(resid, key=resid.get)
    print(f"[named-setup designs] worst rel residual {resid[worst]:.2e} at {worst}")
    assert resid[worst] <= 1e-12


def test_criterion_02_spectral_identities():
    rng = np.random.default_rng(20260802)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_scale_drift = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 101))
        g = rng.standard_normal((d, d))
        sigma = g @ g.T
        r, big_r = effective_ranks(sigma)
        worst_ratio = max(worst_ratio, big_r / (r * r))
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        rc, big_rc = effective_ranks(c * sigma)
        worst_scale_drift = max(
            worst_scale_drift, abs(rc - r) / r, abs(big_rc - big_r) / big_r
        )

    margins = []
    wishart = rng.standard_normal((40, 40))
    for sigma in (
        np.ones(30),
        0.5 ** np.arange(20, dtype=float),
        _family_eigs(
            {"family": "log_poly", "scale": 300.0, "beta": 2.0, "log_factor": math.e / 2}, 100
        ),
        np.linalg.eigvalsh(wishart @ wishart.T),
    ):
        r, _ = effective_ranks(sigma)
        est = norm_effective_ranks(sigma, "l2", mc_samples=10_000, seed=31)
        lo = est.r_norm - (r - 1.0 - 3.0 * est.stderr_r)
        hi = (r + 3.0 * est.stderr_r) - est.r_norm
        margins.append(min(lo, hi))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_ratio <= 1.0 + 1e-9
        and worst_scale_drift <= 1e-12
        and min(margins) >= 0.0
        and elapsed < 60.0
    )
    _report(
        2,
        "effective-rank identities",
        ok,
        f"max R/r^2 {worst_ratio:.12f}, max scale drift {worst_scale_drift:.2e}, "
        f"sandwich margin {min(margins):.3f} at 1e4 draws, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_03_splitting_identities():
    t0 = time.perf_counter()
    max_split = 0.0
    max_cross = 0.0
    log_poly = {"family": "log_poly", "scale": 300.0, "beta": 2.0, "log_factor": math.e / 2}
    exp_noise = {"family": "exp_plus_noise", "tau": 2.0, "scale": 10.0}
    # both spectra, both split kinds; setups i and ii split orthogonally
    for sid, profile in (("i", log_poly), ("iii", log_poly), ("ii", exp_noise), ("iv", exp_noise)):
        model = setup_model(sid, 100)
        # the blocks are diagonal, so the dense identities reduce to the diagonals
        total = _family_eigs(profile, 100)
        resid = np.abs(model.endo_eigs + model.signal_eigs - total).max()
        max_split = max(max_split, resid / np.abs(total).max())
        if sid in ("i", "ii"):
            cross = np.abs(model.endo_eigs * model.signal_eigs).max()
            max_cross = max(max_cross, cross / float(total.max()))

    checked = 0
    for profile in (log_poly, exp_noise):
        for n in range(100, 801, 100):
            eigs = _family_eigs(profile, n)
            k = truncation_level(eigs, n)
            # independent scan: first level whose tail-to-eigenvalue ratio clears n
            tails = 0.0
            suffix = [0.0] * (eigs.size + 1)
            for j in range(eigs.size - 1, -1, -1):
                suffix[j] = suffix[j + 1] + float(eigs[j])
            first = None
            for j in range(eigs.size):
                if eigs[j] > 0 and suffix[j] / float(eigs[j]) > n:
                    first = j
                    break
            assert first == k
            assert suffix[k] / float(eigs[k]) > n
            assert all(suffix[j] / float(eigs[j]) <= n for j in range(k))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = max_split <= 1e-12 and max_cross <= 1e-10 and checked == 16 and elapsed < 10.0
    _report(
        3,
        "covariance splitting",
        ok,
        f"max split residual {max_split:.2e}, max orthogonal cross term {max_cross:.2e}, "
        f"truncation minimality on {checked} spectra, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_04_model_validation():
    t0 = time.perf_counter()
    max_energy_ratio = 0.0
    min_joint_eig = math.inf
    for sid in SETUP_IDS:
        model = setup_model(sid, 100)
        energy = float(model.whitened_cross @ model.whitened_cross)
        max_energy_ratio = max(max_energy_ratio, energy / model.noise_var)
        min_joint_eig = min(min_joint_eig, joint_min_eigenvalue(model))

    # dense oracle for the closed-form joint minimum eigenvalue, one setup
    model = setup_model("i", 100)
    p = model.p
    joint = np.eye(2 * p + 1)
    joint[-1, p:-1] = model.whitened_cross
    joint[p:-1, -1] = model.whitened_cross
    joint[-1, -1] = model.noise_var
    dense_min = float(scipy.linalg.eigvalsh(joint)[0])
    oracle_gap = abs(dense_min - joint_min_eigenvalue(model))

    rejected = False
    try:
        dataclasses.replace(model, whitened_cross=10.0 * model.whitened_cross)
    except EndogeneityTooStrong:
        rejected = True
    elapsed = time.perf_counter() - t0
    ok = (
        max_energy_ratio <= 1.0 + 1e-12
        and min_joint_eig >= -1e-8
        and oracle_gap <= 1e-8
        and rejected
        and elapsed < 5.0
    )
    _report(
        4,
        "model validation",
        ok,
        f"9 setups, max correlation-energy ratio {max_energy_ratio:.3f}, "
        f"min joint eigenvalue {min_joint_eig:.3e} (dense oracle gap {oracle_gap:.1e}), "
        f"10x correlation rejected: {rejected}, {elapsed:.1f} s",
    )
    assert ok


# --------------------------------------------------------------------------


GRID = (100, 200, 300, 400)


def _trend(setup_id: str, **cfg_kwargs):
    cfg = ExperimentConfig(setup=setup_id, n_grid=GRID, repetitions=30, **cfg_kwargs)
    result = run_setup(cfg)
    means = [result.mean_rmse(n, "ridgeless") for n in GRID]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    return means, decreasing, means[-1] / means[0]


def _trend_report(num: int, name: str, setups, **cfg_kwargs):
    t0 = time.perf_counter()
    parts = []
    ok = True
    for sid in setups:
        means, decreasing, ratio = _trend(sid, **cfg_kwargs)
        ok &= decreasing and ratio <= 0.6
        parts.append(
            f"{sid}: {means[0]:.3f}->{means[-1]:.3f} ratio {ratio:.2f} dec={decreasing}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900.0
    _report(num, name, ok, "; ".join(parts) + f"; {elapsed:.0f} s")
    assert ok


def test_criterion_05_trend_orthogonal():
    _trend_report(5, "orthogonal-trend (30 reps, n=100..400)", ("i", "ii"))


def test_criterion_06_trend_nonorthogonal_and_sparse():
    _trend_report(6, "non-orthogonal and sparse trend", ("iii", "iv", "v", "vi"))


def test_criterion_07_trend_student_t_instrument():
    _trend_report(
        7, "student-t instrument trend", ("i",), instrument_dist="student_t", dof=5.0
    )


def test_criterion_08_baseline_comparison():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        setup="vii",
        n_grid=(100, 200),
        repetitions=30,
        estimators=("ridgeless", "lasso_iv"),
    )
    result = run_setup(cfg)
    parts = []
    ok = True
    for n in cfg.n_grid:
        ours = result.mean_rmse(n, "ridgeless")
        base = result.mean_rmse(n, "lasso_iv")
        # the lasso_iv mean is dominated by a few blow-ups, so the typical
        # repetition is gated too: the ridgeless median must also be lower
        ours_med, base_med = (
            float(np.median(
                [r.projected_rmse for r in result.records if r.n == n and r.estimator == est]
            ))
            for est in ("ridgeless", "lasso_iv")
        )
        ok &= ours < base and ours_med < base_med
        parts.append(
            f"n={n}: ridgeless {ours:.2f} vs lasso_iv {base:.2f} "
            f"(medians {ours_med:.2f} vs {base_med:.2f})"
        )
    elapsed = time.perf_counter() - t0
    _report(8, "baseline comparison", ok, "; ".join(parts) + f"; {elapsed:.0f} s")
    assert ok


def test_criterion_09_norm_bound_coverage():
    t0 = time.perf_counter()
    parts = []
    ok = True
    for n in (100, 200):
        model = setup_model("iii", n)
        bound = norm_upper_bound(model, n, delta=0.1).norm_bound
        hits = 0
        reps = 200
        for rep in range(reps):
            data = sample_dataset(model, n, repetition_seed(0, n, rep))
            hits += min_norm_interpolator(data.X, data.Y).norm_l2 <= bound
        coverage = hits / reps
        ok &= coverage >= 0.9
        parts.append(f"n={n}: ceiling {bound:.0f}, coverage {coverage:.3f}")
    elapsed = time.perf_counter() - t0
    _report(9, "norm-bound coverage (delta=0.1, 200 reps)", ok, "; ".join(parts) + f"; {elapsed:.0f} s")
    assert ok


def test_criterion_10_tail_dominance():
    t0 = time.perf_counter()
    report = tail_dominance_check(slice_model(p=4), n=3, reps=10_000, seed=0, grid_size=20)
    elapsed = time.perf_counter() - t0
    margin = float((report.p_phi_gt - 2.0 * report.p_phi_ao_ge).max())
    ok = report.violations == 0 and elapsed < 600.0
    _report(
        10,
        "tail dominance (1e4 reps, 20 thresholds)",
        ok,
        f"violations {report.violations}, max(p_primary - 2 p_surrogate) {margin:.4f}, "
        f"flags {report.flags}, {elapsed:.0f} s",
    )
    assert ok


def test_criterion_11_condition_checker():
    t0 = time.perf_counter()
    grid = tuple(range(100, 801, 100))
    parts = []
    ok = True
    for name in ("logpoly_orthogonal", "expnoise_orthogonal", "logpoly_nonorthogonal"):
        rep = evaluate_conditions(CONDITION_FAMILIES[name], grid)
        bad = [k for k, v in rep.verdicts.items() if not v.decreasing]
        ok &= not bad
        parts.append(f"{name}: {len(rep.verdicts)} sequences decreasing" if not bad
                     else f"{name}: NOT decreasing {bad}")
    rep = evaluate_conditions(CONDITION_FAMILIES["fixed_p_identity"], grid)
    eff = rep.sequences["eff_dim"]
    increasing = bool(np.all(np.diff(eff) > 0))
    ok &= increasing
    parts.append(f"fixed-p anti-example eff_dim {eff[0]:.0f}->{eff[-1]:.0f} increasing={increasing}")
    elapsed = time.perf_counter() - t0
    _report(11, "condition checker (n=100..800)", ok, "; ".join(parts) + f"; {elapsed:.0f} s")
    assert ok


def test_criterion_12_simulate_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"setup": "i", "n_grid": [100, 150], "repetitions": 3, "base_seed": 5})
    )
    runner = CliRunner()
    blobs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        res = runner.invoke(
            main,
            ["simulate", "--config", str(cfg_path), "--workers", str(workers),
             "--output-dir", str(out)],
        )
        assert res.exit_code == 0, res.output
        blobs[workers] = (
            (out / "runs_i.csv").read_bytes(),
            (out / "plot_i_ridgeless.csv").read_bytes(),
        )
    same = blobs[1] == blobs[8]
    elapsed = time.perf_counter() - t0
    _report(
        12,
        "simulate determinism (workers 1 vs 8)",
        same,
        f"runs csv {len(blobs[1][0])} bytes, plot csv {len(blobs[1][1])} bytes, "
        f"identical={same}, {elapsed:.1f} s",
    )
    assert same
