"""Tests of the comparison tools under ``tools/``, each loaded from its path."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from nbwalk import gen_ba, graph as graph_module, parse_edge_list

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paired_bench = load("paired_bench")
output_diff = load("output_diff")


@pytest.mark.parametrize("parent, change, lower, expected", [
    # Narrow runs: the change of the median alone decides.
    ([1.00, 1.01, 1.02, 1.01], [1.05, 1.06, 1.05, 1.06], True, "ok"),
    ([1.00, 1.01, 1.02, 1.01], [1.40, 1.41, 1.40, 1.41], True, "OVER"),
    ([1.00, 1.01, 1.02, 1.01], [0.60, 0.61, 0.60, 0.61], False, "OVER"),
    # The parent's quartiles 0.9 and 1.3 are 40 % of its median apart.
    ([0.8, 0.9, 1.0, 1.3, 1.5], [1.0, 1.0, 1.0, 1.0, 1.0], True, "ok unresolved"),
    # Only the change's runs spread; the larger spread counts.
    ([1.0, 1.0, 1.0, 1.0, 1.0], [0.5, 1.2, 1.3, 1.6, 2.0], True, "OVER unresolved"),
    # Wide spread, but every change run is better than every parent run.
    ([2.0, 2.5, 3.0, 3.5, 4.0], [1.0, 1.2, 1.4, 1.6, 1.8], True, "ok"),
    ([1.0, 1.2, 1.4, 1.6, 1.8], [2.0, 2.5, 3.0, 3.5, 4.0], False, "ok"),
    # One change run ties the best parent run: not every run is better.
    ([2.0, 2.5, 3.0, 3.5, 4.0], [1.0, 1.2, 1.4, 1.6, 2.0], True, "ok unresolved"),
], ids=["narrow-ok", "narrow-over", "narrow-over-higher-better", "parent-spread",
        "change-spread", "separated", "separated-higher-better", "tie"])
def test_paired_bench_verdict(parent, change, lower, expected):
    assert paired_bench.verdict(parent, change, 0.25, lower) == expected


def test_per_line_forms_leave_the_array_reader_and_keep_the_edges(tmp_path):
    g = gen_ba(30, 2, 1)
    path = tmp_path / "ba.txt"
    path.write_text(f"%N {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    copies = output_diff.jobs({"ba": path}, tmp_path)[len(output_diff.COMMANDS):]
    assert len(copies) == len(output_diff.PER_LINE_FORMS)
    for label, (_, copy, *options) in copies:
        text = Path(copy).read_bytes().decode()  # read_text would turn CRLF into "\n"
        assert options in ([], ["--delimiter", "comma"]), label
        delimiter = "," if options else None
        assert graph_module._read_plain(text, 0) is None, label
        assert parse_edge_list(text, delimiter=delimiter).edges == g.edges, label
