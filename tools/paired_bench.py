#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating paired runs.

Each pair runs ``python3 benchmarks/run.py`` once in each checkout, one
process at a time; the side that goes first alternates from pair to pair, so
a drift in the host's speed falls on both sides alike.  Run from anywhere:

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload centrality --seed 1 \\
        [--pairs 10] [--seconds 12]

For each end-to-end metric of ``CHANGE_DIR/BENCHMARK.json`` it prints each
side's median and quartiles, the change's wins out of the pairs (a tie counts
for neither side), the change of the median against the metric's bound, and
whether the gain rule holds: the change better in at least 9 of every 10
pairs, and its median better than the parent's by more than the parent's
interquartile spread.  Below that table it prints, for each job, each
side's median over the runs of the job's median within a run (the report's
``job_median_s``, on the first output line), so that a change of
``job_p50_s`` can be traced to the job that moved.  A run that is not
``correct: true`` with ``failed: 0`` stops the comparison with exit
status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def run_once(root, args):
    """(end-to-end metrics, per-job medians) of one benchmark run in ``root``, or an error message."""
    cmd = ["python3", "benchmarks/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, f"correct={result.get('correct')} failed={result.get('failed')}"
    return (result["metrics"], json.loads(lines[0])["report"]["job_median_s"]), None


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs, jobs = {"parent": [], "change": []}, {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, error = run_once(getattr(args, side), args)
            if error:
                print(f"pair {i + 1}, {side}: {error}", file=sys.stderr)
                return 1
            runs[side].append(values[0])
            jobs[side].append(values[1])
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}")
    print(f"{'metric':<12} {'parent q1 / median / q3':<34} {'change q1 / median / q3':<34} "
          f"{'wins':>6} {'median':>8} {'bound':>6}  gain rule")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
        holds = wins * 10 >= 9 * args.pairs and gain > pq[2] - pq[0]
        worse = -rel if not lower else rel
        print(f"{name:<12} {' / '.join(f'{v:.4g}' for v in pq):<34} "
              f"{' / '.join(f'{v:.4g}' for v in cq):<34} {wins:>3}/{args.pairs:<2} "
              f"{rel:>+8.1%} {'ok' if worse <= metric['bound'] else 'OVER':>6}  "
              f"{'holds' if holds else 'does not hold'} "
              f"(gain {gain:.4g}, parent IQR {pq[2] - pq[0]:.4g})")
    print(f"{'job':<28} {'parent median s':>16} {'change median s':>16} {'change':>8}")
    for job in jobs["parent"][0]:
        p = statistics.median(r[job] for r in jobs["parent"])
        c = statistics.median(r[job] for r in jobs["change"])
        print(f"{job:<28} {p:>16.4g} {c:>16.4g} {(c - p) / p if p else float('nan'):>+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
