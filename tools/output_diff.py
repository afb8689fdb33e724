#!/usr/bin/env python3
"""Compare the CLI output of two checkouts on every benchmark input.

Each input of the three benchmark workloads is built and relabelled at the
given seed by the parent's ``benchmarks/workloads.py`` and written once, by
its harness, into one shared temporary directory, so ``graph_file`` reads
the same on both sides.  Each checkout then runs ``centrality``,
``stationary --walk all`` and ``hitting --walk all --target hub,global`` on
each input, one ``python -m nbwalk.cli`` process per job with that
checkout's ``src`` first on the path.  Each input is also copied in three
forms that the parser's one-pass array reader refuses, so that its
per-line reader is compared on the same graphs: with ``" # c"`` on each
edge line, with CRLF line ends, and with ``u,v`` lines (run with
``--delimiter comma``); each copy is run with ``centrality``.
``manifest.timing_s`` is masked.  Run from anywhere:

    python3 tools/output_diff.py PARENT_DIR CHANGE_DIR [--seed 1]

For each job it prints ``identical``, or both exit codes where they differ,
or else the largest relative difference between paired numbers of the two
JSON outputs.  Exit status 1 if any job differs.  Nothing under
``benchmarks/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("centrality",),
    ("stationary", "--walk", "all"),
    ("hitting", "--walk", "all", "--target", "hub,global"),
)
# (name, id separator, edge line end, line break, CLI options) of each per-line copy of an input.
PER_LINE_FORMS = (
    ("commented", " ", " # c", "\n", ()),
    ("crlf", " ", "", "\r\n", ()),
    ("comma", ",", "", "\n", ("--delimiter", "comma")),
)
TIMING = re.compile(rb'"timing_s": [^,\n}]*')


def write_inputs(parent, seed, outdir):
    """Write each benchmark input as the parent's harness does; return the file paths."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(parent / "src"), str(parent / "benchmarks")]
    import harness
    import workloads

    files = {}
    for make in workloads.WORKLOADS.values():
        for spec in make(seed).graphs:
            if spec.key not in files:
                base = spec.make()
                g = workloads.relabel(base, workloads.relabeling(seed, spec.key, base.n))
                files[spec.key] = outdir / f"{spec.key}.txt"
                harness.write_edge_list(g, files[spec.key])
    return files


def jobs(files, outdir):
    """(label, CLI arguments) of every job: each command on each input, then ``centrality`` on
    each per-line copy of each input, written into ``outdir``."""
    out = [(f"{key}/{command[0]}", [command[0], str(path), *command[1:]])
           for key, path in files.items() for command in COMMANDS]
    for key, path in files.items():
        header, *lines = path.read_text().splitlines()
        for form, separator, end, newline, options in PER_LINE_FORMS:
            copy = outdir / f"{key}.{form}.txt"
            copy.write_bytes((header + newline + "".join(
                separator.join(line.split()) + end + newline for line in lines)).encode())
            out.append((f"{key}.{form}/centrality", ["centrality", str(copy), *options]))
    return out


def run(root, argv):
    """(exit code, stdout with timing_s masked, stderr) of one CLI job in checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "nbwalk.cli", *argv], env=env,
                          capture_output=True)
    return proc.returncode, TIMING.sub(b'"timing_s": null', proc.stdout), proc.stderr


def numbers(value):
    """The numbers of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def largest_difference(a, b):
    """Largest |x - y| / max(|x|, |y|) over the paired numbers, or a note if they do not pair."""
    try:
        xs, ys = numbers(json.loads(a)), numbers(json.loads(b))
    except ValueError:
        return "outputs differ (not JSON)"
    if len(xs) != len(ys):
        return f"outputs differ ({len(xs)} vs {len(ys)} numbers)"
    rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys) if x != y), default=0.0)
    return f"largest relative difference {rel:.3g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differ = count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, job in jobs(write_inputs(parent, args.seed, Path(tmp)), Path(tmp)):
            (code_p, out_p, err_p), (code_c, out_c, err_c) = run(parent, job), run(change, job)
            if (code_p, out_p, err_p) == (code_c, out_c, err_c):
                verdict = "identical"
            elif code_p != code_c:
                verdict = f"exit {code_p} vs {code_c}"
            elif out_p == out_c:
                verdict = "stderr differs"
            else:
                verdict = largest_difference(out_p, out_c)
            count += 1
            differ += verdict != "identical"
            print(f"{label:<30} {verdict}")
    print(f"seed {args.seed}: {count - differ} of {count} jobs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
