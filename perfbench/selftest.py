"""Self-test of the benchmark, on its smoke-sized workloads.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code name the same metrics, that every
named metric is emitted in both modes, that the per-layer counts and the
output digests repeat exactly, that the correctness gate fires on corrupted
outputs, and that the benchmark refuses to run without the package.
Exits non-zero on the first failed check.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import minscale as ms  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_WORKLOADS = ("plan_static", "cloud_3d")


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def check_metric_names(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name not in workloads.UNLISTED]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.UNITS, "per_layer in BENCHMARK.json differs from tracing.UNITS"


def check_emitted(spec):
    """Every named metric comes out, with its unit, on a correct run."""
    runs = {}
    for workload in SMOKE_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record, result = parsed(bench(workload, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, record["failures"]
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, got)
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (name, m)
                assert trace or m["value"] > 0, (name, m)
            runs[workload, trace] = record
    return runs


def check_repeats(runs):
    """A second traced run of the same seed gives the same digests and counts."""
    for workload in SMOKE_WORKLOADS:
        again, _ = parsed(bench(workload, 1))
        first = runs[workload, 1]
        assert again["counts"] == first["counts"], (first["counts"], again["counts"])
        assert again["digest"] == first["digest"] == runs[workload, 0]["digest"]


def check_gate_fires():
    """Corrupted outputs are reported as problems."""
    case = workloads.setup_plan_static(3, True)[0]
    traj, report = workloads.call_plan(case)
    assert workloads.check_plan(case, (traj, report))[0] == []
    assert workloads.check_plan(case, (traj, dataclasses.replace(report, success=False)))[0]
    # straight through the box: the resampled beta drops below beta_min
    straight = ms.PiecewiseTrajectory.from_states(
        np.array([[0, 0, 0, 0, 0, 0], [4.5, 0, 1.8, 0, 0, 0], [9, 0, 0, 0, 0, 0]], float),
        np.full(2, traj.total_duration / 2))
    problems, _ = workloads.check_plan(case, (straight, report))
    assert any("min beta" in p for p in problems), problems

    cases = [c for c in workloads.setup_cloud_3d(3, True) if c.kind == "separated"]
    case = dataclasses.replace(cases[0], verify=True)
    result, grad = workloads.call_cloud(case)
    assert workloads.check_cloud(case, (result, grad))[0] == []
    wrong_beta = dataclasses.replace(result, beta=result.beta * 1.01)
    assert workloads.check_cloud(case, (wrong_beta, grad))[0]
    wrong_grad = dataclasses.replace(grad, d_beta_d_t=grad.d_beta_d_t * 1.01)
    problems, _ = workloads.check_cloud(case, (result, wrong_grad))
    assert any("central differences" in p for p in problems), problems


def check_refuses_without_package():
    """In a directory holding only the benchmark, it fails without a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("cloud_3d", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_gate_fires()
    check_refuses_without_package()
    runs = check_emitted(spec)
    check_repeats(runs)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
