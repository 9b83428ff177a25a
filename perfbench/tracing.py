"""In-memory spans and counters recorded around calls into the package.

Tracing lives only in the benchmark: ``Tracer.installed()`` rebinds the
module-level names through which the harness and the tail check reach each
layer (``harness.sample_dataset``, ``estimators.pseudoinverse``,
``cgmt_lab._ao_climb``, ...) and restores them on exit.  No file of the
package changes.  Counters are taken from the values those calls return, so
the same inputs give the same counts.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter

from ridgeless_iv import cgmt_lab, estimators, harness


class Tracer:
    """Spans (name, start, end, parent) plus named counters.

    A span's parent is the innermost open span of the same thread; a span
    opened on a pool thread with nothing open there takes the current root
    span (the benchmark's own span around ``run_setup``) as its parent.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[tuple] = []  # (span_id, parent_id, name, t0, t1)
        self.counts: Counter = Counter()
        self.root: int | None = None

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on close
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        if root:
            self.root = span_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            self.spans[span_id] = (span_id, parent, name, t0, t1)

    def _wrap(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    out = fn(*args, **kwargs)
                except Exception as err:
                    if on_error is not None:
                        on_error(err)
                    raise
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        count = self.count

        def sampled(args, data):
            count("sampling.bytes_drawn", data.W1.nbytes + data.W2.nbytes + data.X.nbytes)

        def min_norm(args, fit):
            n, p = args[0].shape
            count("estimators.gram_flops", n * n * p)

        def lasso_done(args, fit):
            count("estimators.lasso_cd.passes", fit.iterations)
            count("estimators.lasso_cd.zero", int(not fit.theta_hat.any()))

        def lasso_failed(err):
            if isinstance(err, estimators.ConvergenceFailure):
                count("estimators.lasso_cd.nonconverged")
                count("estimators.lasso_cd.passes", err.result.iterations)
                count("estimators.lasso_cd.zero", int(not err.result.theta_hat.any()))

        def prepared(args, prep):
            count("cgmt_lab.prepare.empty", int(prep.starts_feasible == 0))

        def primary_failed(err):
            if isinstance(err, cgmt_lab.NoFeasiblePoint):
                count("cgmt_lab.primary.infeasible")

        plan = [
            (harness, "setup_model", "covariance.model_build", None, None),
            (harness, "sample_dataset", "sampling.sample_dataset", sampled, None),
            (harness, "min_norm_interpolator", "estimators.min_norm_interpolator", min_norm, None),
            (estimators, "pseudoinverse", "matops.pseudoinverse", None, None),
            (harness, "projected_rmse", "metrics.projected_rmse", None, None),
            (harness, "split_sample_lasso_iv", "estimators.split_sample_lasso_iv", None, None),
            (estimators, "lasso_cd", "estimators.lasso_cd", lasso_done, lasso_failed),
            (harness, "_run_repetition", "harness.run_repetition", None, None),
            (cgmt_lab, "_tail_chunk", "cgmt_lab.tail_chunk", None, None),
            (cgmt_lab, "draw_instance", "cgmt_lab.draw_instance", None, None),
            (cgmt_lab, "_ao_prepare", "cgmt_lab.prepare", prepared, None),
            (cgmt_lab, "_ao_climb", "cgmt_lab.climb", None, None),
            (cgmt_lab, "solve_po", "cgmt_lab.primary", None, primary_failed),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in plan]
        try:
            for mod, attr, name, on_result, on_error in plan:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), on_result, on_error))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms.

        Self time is the span's duration minus the part of its interval
        that its child spans cover (children on pool threads may overlap).
        """
        spans = [s for s in self.spans if s is not None]
        children: dict[int, list] = {}
        for sid, parent, _, t0, t1 in spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict] = {}
        for sid, _, name, t0, t1 in spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - covered) * 1e3
        return out
