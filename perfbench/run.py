"""Benchmark entry point for the ridgeless-iv Monte Carlo lab.

    python3 perfbench/run.py --workload sweep-ii --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each run pins the BLAS libraries to
``--blas-threads`` threads through the environment of a fresh worker
process (so the pin is set before numpy loads), measures set-up in that
process and in ``SETUP_SAMPLES - 1`` set-up-only processes, and prints the
run's facts as one JSON line, then the result as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-ii", "compare-vii", "tail-check", "sweep-ii-w2")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def worker(args, setup_only: bool) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(args.blas_threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--blas-threads", str(args.blas_threads),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--launched-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true", help="minimal sizes, one set-up sample (smoke test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        parser.error("need seed >= 0, seconds > 0 and blas-threads >= 1")
    if not (ROOT / "src" / "ridgeless_iv" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # set-up is an end-to-end metric only, so traced runs sample it once
    samples = 1 if args.smoke or args.trace else SETUP_SAMPLES
    setups = [worker(args, setup_only=True)["setup_s"] for _ in range(samples - 1)]
    result = worker(args, setup_only=False)
    meta = result.pop("meta")
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    meta["setup_samples_s"] = setups
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
