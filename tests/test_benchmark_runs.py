"""The benchmark still runs against this tree: a smoke pass of each workload.

``perfbench/run.py`` reads names of the package (functions it times or
traces, constants it prints); a change that removes one breaks the
benchmark, which this catches.  The traced run resolves every tracer target,
and ``perfbench/selftest.py``'s metric-name and gate checks run too: they
call names of the package that a smoke run does not reach.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("plan_static", 1), ("cloud_3d", 0)])
def test_a_smoke_run_of_the_benchmark_passes(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


def test_the_benchmark_gate_self_check_passes():
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import selftest; "
            "selftest.check_metric_names(json.load(open('BENCHMARK.json'))); "
            "selftest.check_gate_fires()")
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
