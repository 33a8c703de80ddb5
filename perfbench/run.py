"""minscale benchmark: one workload per process, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` every case is called again and again, untraced, for
``--seconds``, with a fixed reference task timed between the calls; the
end-to-end timings are the cases' times over the reference task's (see
README.md).  With ``--trace 1`` every case is called once untraced and once
traced: the traced calls give the per-layer metrics, and the two together
the tracing overhead.
Every output is checked outside the timed region.  A record line (machine,
seed, digests, exact counts) is printed first; the last line of standard
output is the result object.  ``--smoke`` shrinks the workloads to a few
cases for the benchmark's own self-test.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
# seconds of timed calls after which the reference task runs once more
REFERENCE_EVERY_S = 0.2


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(seed):
    import scipy
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def setup_seconds(workload, seed, smoke, probes):
    """Median set-up time over fresh processes: import, scene parsing, inputs."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
            + (["--smoke"] if smoke else []),
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_call(workload, case):
    """One timed call; returns (output or the exception it raised, seconds)."""
    t0 = time.perf_counter()
    try:
        out = workload.call(case)
    except Exception as exc:  # an unexpected exception is a failed call
        out = exc
    return out, time.perf_counter() - t0


_REF_RNG = np.random.default_rng(0)
_REF_ROWS = [(row.tolist(), float(b)) for row, b in
             zip(_REF_RNG.normal(size=(2000, 4)), _REF_RNG.normal(size=2000) + 3.0)]


def reference_task():
    """A fixed stretch of work that uses nothing of minscale, about 5 ms here.

    Like the Seidel loop in ``sdlp``, where both listed workloads spend
    most of their time, it scans a list of rows of floats in the
    interpreter, takes dot products and builds new rows.  Every row it
    builds is freed at once, so it leaves the garbage collector's counts
    as it found them and its time does not depend on the workload's heap.
    Timed between the workload's calls, it tells how fast the machine runs
    at that moment.
    """
    x = (0.5, -0.25, 0.125, 1.0)
    total = 0.0
    for _ in range(4):
        for a, b in _REF_ROWS:
            s = 0.0
            for av, xv in zip(a, x):
                s += av * xv
            if s > b:
                row = [v - 0.5 * a[0] for v in a[1:]]
                total += row[0] - s
    return total


def reference_seconds():
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def run_pass(workload, cases):
    """Call every case once, with the reference task between calls.

    The reference runs at the start of the pass and then once per
    REFERENCE_EVERY_S seconds of timed calls.  Returns (outputs, seconds
    per call, the pass's median reference seconds, wall seconds).
    """
    outputs, times, refs = [], [], []
    t_pass = time.perf_counter()
    refs.append(reference_seconds())
    due = 0.0
    for case in cases:
        out, seconds = timed_call(workload, case)
        outputs.append(out)
        times.append(seconds)
        due += seconds
        while due >= REFERENCE_EVERY_S:
            refs.append(reference_seconds())
            due -= REFERENCE_EVERY_S
    return outputs, times, statistics.median(refs), time.perf_counter() - t_pass


def run_traced_pass(workload, cases, tracer):
    """Call every case twice, untraced and traced, alternating which goes first.

    Returns (untraced outputs, traced outputs, tracing overhead ratio); the
    interleaving lets both sides see the same machine load.
    """
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for i, case in enumerate(cases):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    out, seconds = timed_call(workload, case)
                traced.append(out)
                traced_s += seconds
            else:
                out, seconds = timed_call(workload, case)
                plain.append(out)
                plain_s += seconds
    return plain, traced, traced_s / plain_s - 1.0


def fingerprints(workload, outputs):
    """The digest of every output of a pass; None where the call raised."""
    return [None if isinstance(out, Exception) else workload.digest(out) for out in outputs]


def tail(times):
    """The highest order statistic with ten samples beyond it, or the slowest."""
    ordered = sorted(times)
    if len(ordered) > 20:
        return ordered[-11]
    return ordered[-1]


def gate(workload, cases, outputs):
    """Check the first pass; returns (problems per case, digests, details)."""
    problems, digests, details = [], [], []
    for case, out in zip(cases, outputs):
        if isinstance(out, Exception):
            problems.append([f"raised {type(out).__name__}: {out}"])
            digests.append(None)
            details.append({})
            continue
        found, info = workload.check(case, out)
        problems.append(found)
        digests.append(workload.digest(out))
        details.append(info)
    return problems, digests, details


def summary(workload, cases, problems, digests, details):
    failed = [(i, p) for i, p in enumerate(problems) if p]
    record = {
        "cases": len(cases),
        "failures": [{"case": i, "problems": p} for i, p in failed[:20]],
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode())
        .hexdigest()[:16],
    }
    if workload.plans:
        record["plan_min_beta"] = min((d["min_beta"] for d in details if d), default=None)
        record["plans"] = [dict(label=c.label, **(d or {})) for c, d in zip(cases, digests)]
    else:
        record["degenerate"] = sum(1 for d in details if d.get("degenerate"))
        record["fd_checked"] = sum(1 for d in details if d.get("fd_checked"))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "minscale" / "__init__.py").is_file():
        return _fail(f"no package at {SRC / 'minscale'}; run from a minscale checkout")
    sys.path.insert(0, str(SRC))
    import minscale
    if Path(minscale.__file__).resolve().parent != SRC / "minscale":
        return _fail(f"imported minscale from {minscale.__file__}, not from {SRC}")
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    record = {"workload": workload.name, "trace": args.trace, "smoke": args.smoke,
              "machine": machine_record(args.seed)}

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            cases = workload.setup(args.seed, args.smoke)
        since = len(tracer.spans)
        outputs, traced_outputs, overhead = run_traced_pass(workload, cases, tracer)
        target = cases[0].scenario.beta_min + minscale.CostConfig().safety_margin \
            if workload.plans else 0.0
        layers = tracing.layer_metrics(tracer, since, target)
        layers["trace.overhead_ratio"] = overhead
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.npz")
        repeats = [fingerprints(workload, traced_outputs)]
    else:
        setup_s = setup_seconds(workload.name, args.seed, args.smoke,
                                2 if args.smoke else SETUP_PROBES)
        cases = workload.setup(args.seed, args.smoke)
        outputs, repeats, times, refs = None, [], [], []
        t_start = time.perf_counter()
        while True:
            pass_outputs, pass_times, ref_s, wall = run_pass(workload, cases)
            # only the first pass is kept whole, so memory does not grow with
            # the number of passes the machine's speed allows
            if outputs is None:
                outputs = pass_outputs
            else:
                repeats.append(fingerprints(workload, pass_outputs))
            del pass_outputs
            times.append(pass_times)
            refs.append(ref_s)
            if time.perf_counter() - t_start + wall > args.seconds:
                break
        # a case's time in each pass over that pass's reference time, and its
        # median over the passes: the machine's speed cancels out
        rel = [statistics.median(t / r for t, r in zip(case_times, refs))
               for case_times in zip(*times)]
        wall_ms = [statistics.median(case_times) * 1e3 for case_times in zip(*times)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, digests, details = gate(workload, cases, outputs)
    failed = sum(1 for p in problems if p)
    # every later pass must reproduce the first pass bit for bit
    for again_all in repeats:
        for i, again in enumerate(again_all):
            if problems[i] or again != digests[i]:
                failed += 1
                if not problems[i]:
                    problems[i] = ["output differs from the same call's first run"]
    record.update(summary(workload, cases, problems, digests, details))
    record["passes"] = 1 + len(repeats)

    if args.trace:
        record["counts"] = {k: layers[k] for k in (
            "sdlp.solve_calls", "scale.query_calls", "trajopt.cost_evals",
            "trajopt.lbfgs_iterations")}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        record["wall"] = {"op_ms": statistics.median(wall_ms), "op_ms_tail": tail(wall_ms),
                          "reference_ms": [r * 1e3 for r in refs]}
        metrics = {
            "op_rel": {"value": statistics.median(rel), "unit": "ref"},
            "op_rel_tail": {"value": tail(rel), "unit": "ref"},
            "ops_per_kref": {"value": 1e3 * len(rel) / sum(rel), "unit": "1/kref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cases) * (1 + len(repeats)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
