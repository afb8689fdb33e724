#!/usr/bin/env python3
"""Records the reference values the benchmark checks job outputs against.

Run from the repository root, at a commit whose outputs are trusted::

    python3 benchmarks/record_reference.py

For every workload it builds the inputs at seed 0, runs the job list once,
requires every other check to pass, and writes label-independent summaries of
each output (see ``checks.summarize``) to ``benchmarks/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

# The same single BLAS thread as the benchmark, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def record(name, workdir):
    workload = workloads.WORKLOADS[name](0)
    runner = harness.Runner(workload, workdir)
    runner.setup(0)
    _, _, results, errors = runner.run_pass("record")
    if errors:
        raise SystemExit(f"{name}: jobs failed: {errors}")
    payloads, _, _ = runner.collect(results, errors)
    checker = checks.Checker(workload, runner.infos, {})
    problems = [p for job in workload.jobs for p in checker.check(job, payloads[job.name], payloads)]
    if problems:
        raise SystemExit(f"{name}: checks failed: {problems}")
    out = {}
    for job in workload.jobs:
        summary = checks.summarize(job.command, payloads[job.name])
        if summary:
            info = runner.infos[job.graph]
            entry = out.setdefault(job.graph, {"base_sha256": info.base_digest, "jobs": {}})
            entry["jobs"][checks.signature(job)] = summary
    return out


def main():
    workdir = BENCH_DIR.parent / ".bench_work" / "record"
    try:
        reference = {name: record(name, workdir / name) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
