"""The benchmark's tracer reaches each layer by rebinding module-level names
(perfbench/tracing.py).  A rename or an inlined call in the package would
silently drop a span from traced benchmark runs; this guard runs one small
workload of each kind under the tracer and checks every span shows up."""

import importlib.util
from pathlib import Path

import numpy as np

from ridgeless_iv import cgmt_lab, estimators, harness
from ridgeless_iv.harness import ExperimentConfig, run_setup

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

SPANS = {
    "covariance.model_build",
    "sampling.sample_dataset",
    "estimators.min_norm_interpolator",
    "metrics.projected_rmse",
    "estimators.split_sample_lasso_iv",
    "estimators.lasso_cd",
    "harness.run_repetition",
    "cgmt_lab.tail_chunk",
    "cgmt_lab.draw_instance",
    "cgmt_lab.prepare",
    "cgmt_lab.climb",
    "cgmt_lab.primary",
}


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def rebound(before):
    return {
        (mod.__name__, name)
        for mod, names in before.items()
        for name, value in vars(mod).items()
        if names.get(name) is not value
    }


def test_tracer_spans_reach_every_layer():
    before = {mod: dict(vars(mod)) for mod in (cgmt_lab, estimators, harness)}
    with load_tracer_class()().installed() as tracer:
        assert ("ridgeless_iv.harness", "sample_dataset") in rebound(before)
        run_setup(
            ExperimentConfig(
                setup="vii", n_grid=(100,), repetitions=1, estimators=("ridgeless", "lasso_iv")
            )
        )
        run_setup(ExperimentConfig(setup="ii", n_grid=(100,), repetitions=1))
        cgmt_lab.tail_dominance_check(cgmt_lab.slice_model(4), 3, 8, max_workers=1)
    summary = tracer.summary()
    assert SPANS <= set(summary)
    # the tail check's one chunk of 8 draws: the scan and the primary stay
    # per draw, and the live draws are refined in one climb
    calls = {name: summary[f"cgmt_lab.{name}"]["calls"] for name in ("prepare", "primary", "climb")}
    assert calls == {"prepare": 8, "primary": 8, "climb": 1}
    assert rebound(before) == set()


def test_fallback_solve_is_the_pseudoinverse_span():
    # a duplicated row makes the Gram singular, so the fit falls back to the
    # SVD least-squares solve, once
    x = np.random.default_rng(23).standard_normal((6, 20))
    x[5] = x[2]
    with load_tracer_class()().installed() as tracer:
        estimators.min_norm_interpolator(x, np.ones(6))
    assert tracer.summary()["matops.pseudoinverse"]["calls"] == 1


def test_tracer_counts_each_infeasible_primary():
    # the chunk's primaries are solved in one stacked pass, yet the tracer
    # still sees one primary call per draw and counts each infeasible one;
    # a ball of radius 28 (|theta0| is 28.9) leaves some draws infeasible
    job = (cgmt_lab.slice_model(4), 3, 0, range(16), 28.0)
    with load_tracer_class()().installed() as tracer:
        po_vals, *_ = cgmt_lab._tail_chunk(job)
    infeasible = int(np.isneginf(po_vals).sum())
    assert 0 < infeasible < 16
    assert tracer.summary()["cgmt_lab.primary"]["calls"] == 16
    assert tracer.counts["cgmt_lab.primary.infeasible"] == infeasible
