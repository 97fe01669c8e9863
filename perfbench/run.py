"""Closed-loop benchmark of doakit's Monte Carlo trial harness.

Run from the repository root:

    python3 perfbench/run.py --workload denm-m12 --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole trials and prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
Every metric is printed by name with its unit and sample count, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
correctness check held. See README.md for the metrics and workloads.

doakit is imported from ``src/`` of the checkout that holds this file; the
benchmark exits with code 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One caller, one BLAS thread: the machine this benchmark was defined on has
# two cores, and a single pinned thread keeps results and timings repeatable.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="denm-m12, grid-m12 or denm-m128 (README.md)")
    parser.add_argument("--seed", type=int, required=True, help="master seed of the generated trials (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)  # one set-up sample, see harness
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads its BLAS; child processes inherit the setting.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    if not (SOURCES / "doakit" / "__init__.py").is_file():
        print(f"perfbench: no doakit package under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import harness  # imports numpy and doakit, so only after the two steps above

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {list(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        return harness.setup_probe(args.workload, args.seed)
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
