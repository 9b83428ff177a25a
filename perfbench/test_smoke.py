"""Smoke test of the benchmark itself, outside the Tier-1 test paths.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at minimal size, traced and untraced, checks that each
metric named in BENCHMARK.json is printed with its unit, and checks that a
corrupted reference and a too-tight residual tolerance each trip the
correctness gates, calling the gates in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    assert meta["blas_threads"] == 1 and meta["blas_threads_verified"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


def smoke_sweep(reference: dict):
    return worker.SweepRun(worker.smoke_size(worker.WORKLOADS["sweep-ii"]), 3, reference)


def test_corrupted_reference_trips_gate():
    reference = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))
    job = smoke_sweep(reference)
    assert job.batch(0, None) == 0 and job.finish() == 0
    # 20 IQRs is beyond the band's 4.7 IQRs at one repetition, so every n fails
    for row in reference["setups"]["ii"]["estimators"]["ridgeless"].values():
        row["median"] += 20 * row["iqr"]
    assert job.finish() == job.units()


def test_residual_tolerance_trips_gate():
    reference = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))
    reference["setups"]["ii"]["residual_tol"] = 1e-15
    job = smoke_sweep(reference)
    assert job.batch(0, None) == job.units()
