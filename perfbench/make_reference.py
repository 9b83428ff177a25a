"""Regenerate reference.json: pinned Monte Carlo means and residual tolerances.

    python3 perfbench/make_reference.py

Runs each sweep setup of the benchmark on a fixed base seed that no
benchmark batch uses.  Records the median, interquartile range, mean and
standard deviation per (n, estimator), and the worst relative residual of
any ridgeless fit; pins the residual tolerance at ten times that worst
case.  Rerun it only when a change to the random stream or the solver is
declared.
"""

import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from ridgeless_iv import harness  # noqa: E402
from worker import REFERENCE, WORKLOADS, FitCheck, Sweep  # noqa: E402

BASE_SEED = 20261017
REPS = {"ii": 200, "vii": 120}
Z_BAND = 5.0


def tolerance(worst: float) -> float:
    exp = math.floor(math.log10(10.0 * worst))
    return math.ceil(10.0 * worst / 10.0**exp) * 10.0**exp


def main() -> int:
    setups = {}
    specs = {spec.setup: spec for spec in WORKLOADS.values() if isinstance(spec, Sweep)}
    for setup, spec in sorted(specs.items()):
        cfg = harness.ExperimentConfig(
            setup=setup, n_grid=spec.grid, repetitions=REPS[setup],
            base_seed=BASE_SEED, estimators=spec.estimators,
        )
        check = FitCheck(math.inf)
        with check.installed():
            result = harness.run_setup(cfg, max_workers=2)
        worst, _ = check.take()
        ests = {}
        for row in result.aggregates:
            vals = [r.projected_rmse for r in result.records
                    if r.n == row.n and r.estimator == row.estimator]
            q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
            ests.setdefault(row.estimator, {})[str(row.n)] = {
                "median": float(med), "iqr": float(q3 - q1),
                "mean": row.mean, "stdev": row.stdev, "reps": row.repetitions,
            }
        setups[setup] = {
            "estimators": ests,
            "worst_rel_residual": worst,
            "residual_tol": tolerance(worst),
        }
        print(setup, f"worst residual {worst:.3g}", file=sys.stderr)
    doc = {
        "base_seed": BASE_SEED,
        "blas_threads": 1,
        "numpy": np.__version__,
        "z_band": Z_BAND,
        "setups": setups,
    }
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
