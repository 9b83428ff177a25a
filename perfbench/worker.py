"""One benchmark process: set-up, timed closed loop and correctness gates.

``run.py`` starts this file with the BLAS thread pins already in the
environment and ``src`` on the path; run it through ``run.py``, not alone.
The workload seed never reaches the package: each batch gets an
``ExperimentConfig`` (or a tail-check seed) derived from (seed, batch).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from ridgeless_iv import cgmt_lab, harness

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Sweep:
    """``run_setup`` over the desk grid; one unit is one (n, rep) task."""

    setup: str
    estimators: tuple
    reps: int  # repetitions per batch
    workers: int
    grid: tuple = (100, 200, 300, 400)


@dataclass(frozen=True)
class Tail:
    """``tail_dominance_check`` on the p=4 slice model; one unit is one draw."""

    draws: int = 256  # per batch; a multiple of the 256-draw chunk
    n: int = 3
    p: int = 4


# Why each workload exists is in README.md; sweep-ii and sweep-ii-w2 share
# their inputs, so the runs CSV of one can be compared byte for byte.
WORKLOADS = {
    "sweep-ii": Sweep("ii", ("ridgeless",), reps=4, workers=1),
    "compare-vii": Sweep("vii", ("ridgeless", "lasso_iv"), reps=2, workers=1),
    "tail-check": Tail(),
    "sweep-ii-w2": Sweep("ii", ("ridgeless",), reps=4, workers=2),
}


def smoke_size(spec):
    if isinstance(spec, Sweep):
        return replace(spec, reps=1, grid=(100, 200))
    return replace(spec, draws=32)


def derive_seed(seed: int, stream: str, batch: int) -> int:
    digest = hashlib.sha256(f"{stream}:{seed}:{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def stream_name(spec) -> str:
    return f"sweep-{spec.setup}" if isinstance(spec, Sweep) else "tail"


# --------------------------------------------------------------------------
# thread environment


def blas_libraries() -> dict:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get is None:
                continue
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            config.restype = ctypes.c_char_p
            out[os.path.basename(path)] = {
                "threads": int(get()),
                "config": config().decode(),
            }
            break
        else:
            get = getattr(lib, "openblas_get_num_threads", None)
            if get is not None:
                out[os.path.basename(path)] = {"threads": int(get()), "config": "unknown"}
    return out


def environment(blas_threads: int) -> dict:
    libs = blas_libraries()
    seen = sorted({lib["threads"] for lib in libs.values()})
    if any(os.environ.get(var) != str(blas_threads) for var in BLAS_ENV):
        raise SystemExit(f"BLAS thread variables not pinned to {blas_threads}")
    if seen and seen != [blas_threads]:
        raise SystemExit(f"BLAS reports {seen} threads, expected {blas_threads}")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_threads_verified": bool(seen),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_libraries": libs,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# correctness gates


class FitCheck:
    """Relative residual |X theta - Y| / |Y| of every ridgeless fit.

    Installed in every run, traced or not; it reads the fit's own
    train_loss, so it adds no linear algebra to the timed loop.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self._lock = threading.Lock()
        self.worst = 0.0
        self.bad = 0

    @contextlib.contextmanager
    def installed(self):
        inner = harness.min_norm_interpolator

        def checked(x, y):
            fit = inner(x, y)
            ynorm = float(np.linalg.norm(y))
            rel = math.sqrt(fit.train_loss * len(y)) / ynorm if ynorm > 0 else math.inf
            with self._lock:
                self.worst = max(self.worst, rel) if math.isfinite(rel) else math.inf
                self.bad += int(not rel <= self.tol)
            return fit

        harness.min_norm_interpolator = checked
        try:
            yield self
        finally:
            harness.min_norm_interpolator = inner

    def take(self) -> tuple[float, int]:
        with self._lock:
            out = (self.worst, self.bad)
            self.worst, self.bad = 0.0, 0
        return out


def band_failures(values: dict, reference: dict, z: float) -> list:
    """(n, estimator, run median, reference median) for each median outside
    its band.

    Medians, not means: lasso_iv errors on setup vii have tails reaching
    1e4 times the median, so a mean band is either tripped by a legitimate
    seed or too wide to detect anything.  The band is z asymptotic standard
    errors of a median, 1.2533 * sigma * sqrt(1/m + 1/M) for m run and M
    reference repetitions, with sigma = IQR / 1.349 taken from the
    reference, so it holds for a single repetition too.
    """
    bad = []
    for (n, est), vals in sorted(values.items()):
        ref = reference["estimators"][est][str(n)]
        med = float(np.median(vals))
        sigma = ref["iqr"] / 1.349
        half = z * 1.2533 * sigma * math.sqrt(1.0 / len(vals) + 1.0 / ref["reps"])
        if not abs(med - ref["median"]) <= half:
            bad.append((n, est, med, ref["median"]))
    return bad


def runs_csv(result) -> bytes:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        (path,) = harness.emit_outputs(result, "csv", output_dir=tmp)
        return Path(path).read_bytes()


# --------------------------------------------------------------------------
# workloads


class SweepRun:
    def __init__(self, spec: Sweep, seed: int, reference: dict):
        self.spec = spec
        self.seed = seed
        self.reference = reference["setups"][spec.setup]
        self.z = reference["z_band"]
        self.check = FitCheck(self.reference["residual_tol"])
        self.values: dict = {}
        self.first = None
        self.worst_window = 0.0
        self.notes: list = []

    def config(self, batch: int, **over):
        spec = self.spec
        return harness.ExperimentConfig(
            setup=spec.setup,
            n_grid=over.get("grid", spec.grid),
            repetitions=over.get("reps", spec.reps),
            base_seed=derive_seed(self.seed, stream_name(spec), batch),
            estimators=spec.estimators,
        )

    def set_up(self):
        for n in self.spec.grid:
            harness.setup_model(self.spec.setup, n)
        # one warm-up repetition at the largest n, on a stream no batch uses
        cfg = self.config(-1, grid=self.spec.grid[-1:], reps=1)
        with self.check.installed():
            harness.run_setup(cfg, max_workers=self.spec.workers)
        self.check.take()

    def units(self) -> int:
        return len(self.spec.grid) * self.spec.reps

    def batch(self, k: int, tracer: Tracer | None) -> int:
        """Run batch k; returns the failed units found so far."""
        cfg = self.config(k)
        span = tracer.span("harness.run_setup", root=True) if tracer else contextlib.nullcontext()
        try:
            with self.check.installed(), span:
                result = harness.run_setup(cfg, max_workers=self.spec.workers)
        except Exception as err:  # a batch that raises fails every unit in it
            self.notes.append(f"batch {k}: {type(err).__name__}: {err}")
            self.check.take()
            return self.units()
        worst, bad = self.check.take()
        if k == 1:
            self.worst_window = worst
        if k == 0:
            self.first = result
        bad_reps = {
            (r.n, r.repetition) for r in result.records if not math.isfinite(r.projected_rmse)
        }
        for rec in result.records:
            self.values.setdefault((rec.n, rec.estimator), []).append(rec.projected_rmse)
        if bad:
            self.notes.append(f"batch {k}: {bad} fits above residual tol")
        return min(self.units(), bad + len(bad_reps))

    def finish(self) -> int:
        """Gates over the whole run; returns the units they fail."""
        failed = 0
        for n, est, med, ref in band_failures(self.values, self.reference, self.z):
            self.notes.append(f"n={n} {est}: median {med:.6g} outside band of {ref:.6g}")
            failed += len(self.values[(n, est)])
        if self.spec.workers > 1 and self.first is not None:
            serial = harness.run_setup(self.config(0), max_workers=1)
            if runs_csv(serial) != runs_csv(self.first):
                self.notes.append("batch 0: runs CSV differs from the serial run")
                failed += self.units()
        return failed

    def window_values(self) -> dict:
        return {"estimators.max_rel_residual": self.worst_window}


class TailRun:
    def __init__(self, spec: Tail, seed: int, reference: dict):
        self.spec = spec
        self.seed = seed
        self.model = None
        self.cert_empty_window = 0.0
        self.notes: list = []

    def tail_check(self, seed: int, draws: int):
        return cgmt_lab.tail_dominance_check(
            self.model, n=self.spec.n, reps=draws, seed=seed, max_workers=1
        )

    def set_up(self):
        self.model = cgmt_lab.slice_model(p=self.spec.p)
        self.tail_check(derive_seed(self.seed, "tail", -1), 16)

    def units(self) -> int:
        return self.spec.draws

    def batch(self, k: int, tracer: Tracer | None) -> int:
        seed = derive_seed(self.seed, "tail", k)
        span = (
            tracer.span("cgmt_lab.tail_dominance_check", root=True)
            if tracer
            else contextlib.nullcontext()
        )
        try:
            with span:
                report = self.tail_check(seed, self.spec.draws)
        except Exception as err:
            self.notes.append(f"batch {k}: {type(err).__name__}: {err}")
            return self.units()
        if k == 1:
            self.cert_empty_window = report.flags["ao_feasible_empty"] / report.reps
        if report.violations:
            self.notes.append(f"batch {k}: {report.violations} tail violations")
            return self.units()
        # phi_po = -inf marks a draw whose primary side is infeasible: the
        # check's documented outcome, counted by cgmt_lab.primary.infeasible
        po = report.phi_po
        bad = np.isnan(po) | (po == np.inf) | ~np.isfinite(report.phi_ao)
        if bad.any():
            self.notes.append(f"batch {k}: {int(bad.sum())} non-finite draws {report.flags}")
        return int(bad.sum())

    def finish(self) -> int:
        return 0

    def window_values(self) -> dict:
        return {"cgmt_lab.cert_empty_share": self.cert_empty_window}


# --------------------------------------------------------------------------
# per-layer metrics


# span names whose total time, self time or call count is reported per unit
TIMED = (
    "covariance.model_build", "sampling.sample_dataset", "estimators.min_norm_interpolator",
    "matops.pseudoinverse", "metrics.projected_rmse", "estimators.split_sample_lasso_iv",
    "estimators.lasso_cd", "cgmt_lab.draw_instance", "cgmt_lab.prepare", "cgmt_lab.climb",
    "cgmt_lab.primary",
)
SELF_TIMED = (
    "estimators.min_norm_interpolator", "harness.run_setup", "harness.run_repetition",
    "cgmt_lab.tail_chunk", "cgmt_lab.tail_dominance_check",
)
CALLED = (
    "covariance.model_build", "sampling.sample_dataset", "metrics.projected_rmse",
    "estimators.split_sample_lasso_iv", "estimators.lasso_cd",
)
# tracer counters reported per unit, with their units
COUNTED = {
    "sampling.bytes_drawn": "B/rep",
    "estimators.gram_flops": "flop/rep",
    "estimators.lasso_cd.passes": "1/rep",
    "estimators.lasso_cd.nonconverged": "1/rep",
    "cgmt_lab.primary.infeasible": "1/rep",
}
# values the workloads report over the count window; 0 where a layer is idle
WINDOW_VALUES = ("estimators.max_rel_residual", "cgmt_lab.cert_empty_share")


def layer_metrics(total, window: Tracer, traced_units, wall, workers, window_units):
    """Times are ms per unit over every traced batch; counts are per unit
    over the count window (batch 1), so they repeat exactly for a seed."""

    def get(summary, name, field):
        return summary.get(name, {}).get(field, 0.0)

    def share(num, den):
        return num / den if den else 0.0

    win = window.summary()
    lasso_calls = get(win, "estimators.lasso_cd", "calls")
    prepare_calls = get(win, "cgmt_lab.prepare", "calls")
    values = {}
    for name in TIMED:
        values[f"{name}.ms"] = (get(total, name, "ms") / traced_units, "ms/rep")
    for name in SELF_TIMED:
        values[f"{name}.self_ms"] = (get(total, name, "self_ms") / traced_units, "ms/rep")
    for name in CALLED:
        values[f"{name}.calls"] = (get(win, name, "calls") / window_units, "1/rep")
    for name, unit in COUNTED.items():
        values[name] = (window.counts[name] / window_units, unit)
    run_setup_ms = get(total, "harness.run_setup", "ms")
    root_ms = run_setup_ms + get(total, "cgmt_lab.tail_dominance_check", "ms")
    values.update({
        "estimators.lasso_cd.zero_share": (
            share(window.counts["estimators.lasso_cd.zero"], lasso_calls),
            "ratio",
        ),
        "cgmt_lab.prepare.empty_share": (
            share(window.counts["cgmt_lab.prepare.empty"], prepare_calls),
            "ratio",
        ),
        "harness.parallel_efficiency": (
            share(get(total, "harness.run_repetition", "ms"), workers * run_setup_ms),
            "ratio",
        ),
        "trace.remainder_share": (1.0 - root_ms / wall, "ratio"),
    })
    return values


# --------------------------------------------------------------------------


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = smoke_size(spec)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    env = environment(args.blas_threads)
    job = (SweepRun if isinstance(spec, Sweep) else TailRun)(spec, args.seed, reference)
    job.set_up()
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        return {"setup_s": setup_s}

    walls = {False: [], True: []}  # batch wall times, untraced and traced
    tracers, attempted, failed = [], 0, 0
    window = None
    min_batches = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < min_batches or time.perf_counter() < deadline:
        traced = bool(args.trace) and k % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            failed += job.batch(k, tracer)
        dt = time.perf_counter() - t0
        attempted += job.units()
        walls[traced].append(dt)
        if traced:
            tracers.append(tracer)
            if window is None:
                window = tracer
        k += 1
    failed = min(attempted, failed + job.finish())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def rate(ws):  # units per second over the batches' summed wall time
        return job.units() * len(ws) / sum(ws)

    meta = dict(env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke, spec=repr(spec), batches=k,
                units_per_batch=job.units(), notes=job.notes)
    if not args.trace:
        meta["batch_rates"] = [job.units() / dt for dt in walls[False]]
        metrics = {
            "reps_per_s": (rate(walls[False]), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        total: dict = {}
        for tr in tracers:
            for name, row in tr.summary().items():
                acc = total.setdefault(name, dict.fromkeys(row, 0.0))
                for key, val in row.items():
                    acc[key] += val
        metrics = layer_metrics(
            total, window, job.units() * len(tracers), sum(walls[True]) * 1e3,
            getattr(spec, "workers", 1), job.units(),
        )
        window_values = dict.fromkeys(WINDOW_VALUES, 0.0) | job.window_values()
        metrics.update({name: (val, "ratio") for name, val in window_values.items()})
        overhead = 1.0 - rate(walls[True]) / rate(walls[False])
        metrics["trace.overhead_share"] = (overhead, "ratio")
        meta["layers"] = total
        write_spans(args, tracers)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
        "meta": meta,
    }


def write_spans(args, tracers) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["id", "parent", "name", "start", "end"],
        "batches": [[list(s) for s in tr.spans if s is not None] for tr in tracers],
    }
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
