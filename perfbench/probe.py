"""Time one set-up in a fresh process and print the seconds it took.

    python3 perfbench/probe.py WORKLOAD SEED [--smoke]

The clock covers importing the package, parsing the workload's scene and
building its inputs: what a user pays before the first timed call.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), "--smoke" in sys.argv[3:])
    print(f"{time.perf_counter() - T0:.6f}")
