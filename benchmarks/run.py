#!/usr/bin/env python3
"""nbwalk benchmark: one workload, measured end to end or traced layer by layer.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload analyze --seed 1 --seconds 36 --trace 0

Workloads are ``analyze``, ``centrality`` and ``verify`` (see workloads.py for
why each exists).  Inputs are generated from ``--seed``.  Set-up (import,
input generation, file writing, warm-up) is repeated and its median reported;
then the workload's job list runs in passes until ``--seconds`` is used up
(at least one pass).  Every job output is checked.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` the first pass runs untraced and the rest traced, and the
result line holds the per-layer metrics and the tracing overhead.  The lines
before the result describe the machine, the inputs and every check failure,
and print each metric by name with its unit, plus two that are not in the
result line because they can be 0: ``fail_frac`` (failed over attempted jobs)
and, for workloads with Monte Carlo jobs, ``mc_steps_per_s``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("analyze", "centrality", "verify")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nbwalk" / "__init__.py").is_file():
        print(f"benchmark: no nbwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS runs on one thread, pinned before numpy loads: on a few shared
    # cores, threads that wait for each other at every call measure the
    # scheduler, and a single thread leaves a core for everything else.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = harness.workloads.WORKLOADS[args.workload](args.seed)
        result, report = harness.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        harness.clean(workdir)
    print(json.dumps({"report": report}, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {report['fail_frac']:.6g} ratio ({report['failed']} of "
          f"{report['attempted']} jobs)")
    if report["mc_steps_per_s"] is not None:
        print(f"mc_steps_per_s = {report['mc_steps_per_s']:.6g} 1/s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
