#!/usr/bin/env python3
"""Benchmark of ellipsf: runs one workload, checks its outputs, prints metrics.

    python3 perfbench/run.py --workload report --seed 0 --seconds 36 --trace 0

Workloads: report, fourier, lattice (see NOTES.md).  The package is imported
from ``src/`` beside this directory.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of traced passes.  The last
line of stdout is the JSON result, the line before it the run's metadata
(git sha, numpy version, nproc, BLAS threads, fail_frac); both also go to
``.bench_out/`` with the spans of traced passes.  ``--smoke`` runs the
reduced job lists of the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    # numpy sizes its BLAS pool when first imported: one thread per CPU.
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = ncpu
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced job lists (tests)")
    args = ap.parse_args(argv)
    if not (SRC / "ellipsf" / "__init__.py").is_file():
        print(f"error: no ellipsf sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import harness

    result, meta, problems = harness.run(args.workload, args.seed, args.seconds,
                                         bool(args.trace), args.smoke)
    for line in problems[:harness.MAX_PROBLEMS_SHOWN]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
