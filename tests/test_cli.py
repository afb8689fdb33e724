"""End-to-end command-line tests driven through cli.main."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbwalk import Graph, InvalidParamsError, gen_ba, nb_centrality
from nbwalk.cli import COMMANDS, EXIT_STDOUT_CLOSED, WRITE_BLOCK, _iterjson, build_parser, main

from conftest import k_with_path, triangle_with_path


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_limited(argv):
    """``nbwalk argv`` in a child process with 2 GB of address space."""
    limit = 2 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from nbwalk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def rose2_file(tmp_path):
    return write_graph(
        tmp_path, "rose2.txt",
        "0 1\n0 2\n1 3\n2 3\n0 4\n0 5\n4 6\n5 6\n",
    )


def k4_file(tmp_path):
    return write_graph(tmp_path, "k4.txt", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")


def k3_file(tmp_path):
    return write_graph(tmp_path, "k3.txt", "0 1\n1 2\n2 0\n")


def test_centrality_rose(tmp_path, capsys):
    out = run_json(capsys, ["centrality", rose2_file(tmp_path)])
    assert out["kappa"] == pytest.approx(1.3160740, abs=1e-6)
    assert len(out["x"]) == 7
    assert out["degrees"][0] == 4
    assert len(out["eigenvector_centrality"]) == 7
    assert out["solver"]["path"] == "kernel"  # two loops of length 4 at the hub
    assert out["solver"]["iterations"] > 0
    assert set(out["solver"]) == {"path", "iterations"}
    # psi_1 of two 4-cycles on a hub (lambda_1 = sqrt(6)): hub 1/sqrt(3), the
    # hub's neighbours 1/(2 sqrt(2)) each, the far corners 1/(2 sqrt(3)).
    psi = np.array(out["eigenvector_centrality"])
    expected = np.array([2.0, np.sqrt(1.5), np.sqrt(1.5), 1.0, np.sqrt(1.5), np.sqrt(1.5), 1.0])
    assert np.max(np.abs(psi - expected / np.sqrt(12.0))) <= 1e-12
    evc = out["eigenvector_solver"]
    assert evc["path"] == "lanczos"
    assert evc["iterations"] > 0
    assert 0.0 <= evc["residual"] <= 1e-12 * np.sqrt(6.0)
    assert out["manifest"]["command"] == "centrality"
    assert out["manifest"]["input_digest"]


def test_centrality_k4_uniform(tmp_path, capsys):
    out = run_json(capsys, ["centrality", k4_file(tmp_path)])
    assert out["kappa"] == pytest.approx(2.0, abs=1e-9)
    assert max(out["x"]) - min(out["x"]) <= 1e-9
    assert out["solver"]["path"] == "power"  # K4 is its own kernel, 2E_k = 12 > N = 4
    assert out["solver"]["iterations"] > 0


def test_centrality_tree_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.txt", "0 1\n1 2\n")
    code = main(["centrality", path])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "tree_graph"


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["centrality", str(tmp_path / "absent.txt")])
    capsys.readouterr()
    assert code == 1


def test_disconnected_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "two.txt", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    code = main(["centrality", path])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"] == "not_connected"


def triangle_with_path_file(tmp_path, length):
    """The edge list of ``triangle_with_path(length)``."""
    edges = [f"{u} {v}" for u, v in triangle_with_path(length).edges]
    return write_graph(tmp_path, f"tripath{length}.txt", "\n".join(edges) + "\n")


@pytest.mark.parametrize("length, argv", [
    (80, ["compare"]),
    (80, ["hitting", "--walk", "merw"]),
    (40, ["hitting", "--walk", "merw", "--method", "both"]),
    (40, ["compare"]),
    (40, ["hitting", "--walk", "merw"]),
    (40, ["hitting", "--walk", "merw", "--method", "linear"]),
], ids=["compare", "hitting-merw", "hitting-merw-both", "compare-40", "hitting-merw-40",
        "hitting-merw-linear-40"])
def test_numerically_singular_laplacian_is_ill_conditioned(tmp_path, capsys, length, argv):
    # MERW's psi_1 decays geometrically along the pendant path: its strengths
    # span 1.4e17 at 40 nodes, so a rounding error of the largest swamps the
    # smallest, and each route refuses the walk before it reports a time.
    # Along 80 nodes the weighted Laplacian is singular in floating point.
    path = triangle_with_path_file(tmp_path, length)
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert code == 7
    err = json.loads(lines[0])
    assert err["error"] == "ill_conditioned"
    assert "merw" in err["message"]


@pytest.mark.parametrize("walk", ["turw", "nbcrw"])
def test_other_walks_on_the_long_path_succeed(tmp_path, capsys, walk):
    out = run_json(capsys, ["hitting", triangle_with_path_file(tmp_path, 80), "--walk", walk])
    assert len(out["reports"][0]["t_partial"]) == 83


def test_nbcrw_on_a_deep_pendant_path(tmp_path, capsys):
    # K4 with a 120-node pendant path takes the kernel route, so x is exact and
    # positive down to 2^-120 of the core: the walk builds, but its strengths
    # span far more than 2^53 and hitting times are refused.
    edges = "".join(f"{u} {v}\n" for u, v in k_with_path(4, 120).edges)
    path = write_graph(tmp_path, "k4path.txt", edges)
    out = run_json(capsys, ["stationary", path, "--walk", "nbcrw"])
    assert min(out["reports"][0]["pi"]) > 0
    code = main(["hitting", path, "--walk", "nbcrw"])
    assert code == 7
    assert json.loads(capsys.readouterr().err)["error"] == "ill_conditioned"


def test_nbcrw_on_a_pendant_path_off_the_power_route(tmp_path, capsys):
    # BA(100, 2) with a 20-node pendant path takes the power route (N = 120 <
    # 2E_k = 296); the path's x is x_parent / kappa there too, not wiped to 0,
    # so the walk builds and puts mass on every path node.
    ba = gen_ba(100, 2, 1)
    g = Graph.from_edges(120, [*ba.edges, (0, 100), *((i, i + 1) for i in range(100, 119))])
    assert nb_centrality(g).path == "power"
    path = write_graph(tmp_path, "ba_path.txt", "".join(f"{u} {v}\n" for u, v in g.edges))
    out = run_json(capsys, ["stationary", path, "--walk", "nbcrw"])
    assert min(out["reports"][0]["pi"][100:]) > 0


GRAPH_COMMANDS = {
    "centrality": [],
    "stationary": [],
    "hitting": [],
    "compare": [],
    "simulate": ["--walk", "turw", "--mode", "stationary", "--trials", "4", "--max-steps", "40"],
}


@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_manifest_counts_duplicate_edges(tmp_path, capsys, command):
    for text, count in (("0 1\n1 2\n2 0\n", 0), ("0 1\n1 2\n2 0\n1 0\n0 1\n", 2)):
        path = write_graph(tmp_path, "k3.txt", text)
        out = run_json(capsys, [command, path, *GRAPH_COMMANDS[command]])
        assert out["manifest"]["duplicate_edges"] == count


def test_duplicate_edges_leave_stderr_empty(tmp_path):
    # In a child process, so stderr is the real one: the count goes to the
    # manifest and nothing to stderr.
    proc = run_limited(["centrality", write_graph(tmp_path, "k3.txt", "0 1\n1 2\n2 0\n1 0\n")])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["manifest"]["duplicate_edges"] == 1


HUGE_NODE_IDS = {
    "huge-id": ("stationary", "5000000000 1\n1 2\n2 0\n0 1\n", 3, "not_connected"),
    "huge-header": ("hitting", "%N 3000000000\n0 1\n1 2\n2 0\n", 3, "not_connected"),
    "id-beyond-any-index": ("compare", "100000000000000000000 1\n1 2\n2 0\n0 1\n", 6,
                            "invalid_params"),
}


@pytest.mark.parametrize("command,text,exit_code,error", HUGE_NODE_IDS.values(),
                         ids=HUGE_NODE_IDS.keys())
def test_huge_node_ids_fail_before_any_allocation(tmp_path, command, text, exit_code, error):
    # A child process with 2 GB of address space: an O(N) allocation for the
    # huge node count fails fast there instead of exhausting the machine.
    proc = run_limited([command, write_graph(tmp_path, "huge.txt", text)])
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert proc.returncode == exit_code, proc.stderr
    assert json.loads(lines[0])["error"] == error
    assert proc.stdout == ""


def big_ring_file(tmp_path):
    """A 30000-node ring with the chord (0, 15000): over the dense-array cap."""
    n = 30000
    edges = [f"{i} {(i + 1) % n}" for i in range(n)] + [f"0 {n // 2}"]
    return write_graph(tmp_path, "ring.txt", "\n".join(edges) + "\n")


@pytest.mark.parametrize("mode_args", [
    ("--mode", "stationary", "--burn-in", "10"),
    ("--mode", "hitting", "--source", "0", "--target", "15000"),
], ids=["stationary", "hitting"])
def test_simulate_steps_on_arcs_where_no_dense_matrix_fits(tmp_path, mode_args):
    # An N×N float array takes 7.2 GB, far above the child's 2 GB of address
    # space, so the walker must not form one.
    path = big_ring_file(tmp_path)
    proc = run_limited(["--seed", "3", "simulate", path, "--walk", "turw", *mode_args,
                        "--trials", "4", "--max-steps", "200"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["mode"] == mode_args[1]
    assert out["samples"] + out["truncated"] > 0


@pytest.mark.parametrize("mode_args", [
    ("--mode", "hitting", "--source", "1", "--target", "0", "--trials", "400000001"),
    ("--mode", "stationary", "--trials", str(57142858**2), "--max-steps", "57142858"),
], ids=["hitting", "stationary"])
def test_simulate_trials_above_the_dense_cap_are_refused(tmp_path, mode_args):
    # Just over MAX_DENSE_NODES² = 4e8 walker entries (trials, or chains × 7
    # nodes), refused before any allocation; the 2 GB child could not hold them.
    proc = run_limited(["simulate", rose2_file(tmp_path), "--walk", "turw", *mode_args])
    assert proc.returncode == 6, proc.stderr
    assert json.loads(proc.stderr)["error"] == "invalid_params"
    assert "above the cap" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("hitting", "--walk", "turw", "--target", "hub"),
    ("stationary", "--walk", "turw", "--check"),
    ("stationary", "--walk", "merw"),
    ("simulate", "--walk", "merw", "--mode", "stationary", "--trials", "4", "--max-steps", "200"),
], ids=["hitting-turw", "stationary-turw-check", "stationary-merw", "simulate-merw"])
def test_dense_routes_are_refused_where_no_dense_matrix_fits(tmp_path, argv):
    # Each of these routes needs an N×N array (the Laplacian, P or MERW's
    # dense adjacency), so it is refused as invalid_params before anything is
    # allocated.
    proc = run_limited([argv[0], big_ring_file(tmp_path), *argv[1:]])
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert proc.returncode == 6
    err = json.loads(lines[0])
    assert err["error"] == "invalid_params"
    assert "20000" in err["message"] and "centrality" in err["message"]
    assert proc.stdout == ""


def test_stationary_all_walks(tmp_path, capsys):
    out = run_json(capsys, ["stationary", rose2_file(tmp_path), "--walk", "all"])
    by_kind = {entry["kind"]: entry for entry in out["reports"]}
    assert set(by_kind) == {"turw", "merw", "nbcrw"}
    assert by_kind["nbcrw"]["pi"][0] == pytest.approx(0.267949, abs=1e-6)
    assert by_kind["merw"]["pi"][0] == pytest.approx(1.0 / 3, abs=1e-9)


def test_stationary_check_residuals(tmp_path, capsys):
    out = run_json(capsys, ["stationary", rose2_file(tmp_path), "--check"])
    for entry in out["reports"]:
        assert entry["check"]["closed_vs_linear_max_gap"] <= 1e-9
        assert entry["check"]["detailed_balance_residual"] <= 1e-9


def test_hitting_turw_hub(tmp_path, capsys):
    out = run_json(
        capsys, ["hitting", rose2_file(tmp_path), "--walk", "turw", "--target", "hub"]
    )
    entry = out["reports"][0]
    assert entry["hub_node"] == 0
    assert entry["t_hub"] == pytest.approx(10.0 / 3, abs=1e-9)
    assert entry["t_global"] == pytest.approx(200.0 / 21, abs=1e-9)


def test_hitting_both_methods_gap(tmp_path, capsys):
    out = run_json(
        capsys,
        ["hitting", rose2_file(tmp_path), "--walk", "nbcrw", "--method", "both"],
    )
    assert out["reports"][0]["spectral_vs_linear_max_gap"] <= 1e-8


def test_hitting_explicit_node_target(tmp_path, capsys):
    out = run_json(
        capsys,
        ["hitting", rose2_file(tmp_path), "--walk", "turw", "--target", "hub,global,3"],
    )
    entry = out["reports"][0]
    assert "t_hub" in entry and "t_global" in entry and "t_partial_3" in entry


def test_hitting_verbatim_audit(tmp_path, capsys):
    out = run_json(
        capsys,
        ["hitting", k3_file(tmp_path), "--walk", "nbcrw", "--verbatim-eq26"],
    )
    audit = out["reports"][0]["eq26_audit"]
    assert audit["t_verbatim"][0][1] == pytest.approx(1.0, abs=1e-9)
    assert audit["t_consistent"][0][1] == pytest.approx(2.0, abs=1e-9)
    assert audit["max_gap_verbatim_vs_linear"] > 0.5
    assert "prefactor" in audit["note"]


@pytest.mark.parametrize("args", [
    ["hitting", "--walk", "turw", "--target", "abc"],
    ["hitting", "--walk", "turw", "--target", "-1"],
    ["hitting", "--walk", "turw", "--target", "7"],
    ["hitting", "--walk", "turw", "--target", "1.5"],
    ["simulate", "--walk", "turw", "--mode", "hitting", "--source", "abc", "--target", "1"],
    ["simulate", "--walk", "turw", "--mode", "hitting", "--source", "0", "--target", "-1"],
    ["simulate", "--walk", "turw", "--mode", "hitting", "--source", "7", "--target", "1"],
], ids=["hitting-non-integer", "hitting-negative", "hitting-unknown", "hitting-float",
        "simulate-non-integer", "simulate-negative", "simulate-unknown"])
def test_bad_node_id_exit_code(tmp_path, capsys, args):
    code = main([args[0], rose2_file(tmp_path)] + args[1:])
    captured = capsys.readouterr()
    assert code == 6
    assert json.loads(captured.err)["error"] == "invalid_params"


def test_node_ids_are_file_ids(tmp_path, capsys):
    path = write_graph(tmp_path, "k4-one-based.txt", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    out = run_json(capsys, ["hitting", path, "--index-base", "1", "--walk", "turw",
                            "--target", "hub,4"])
    entry = out["reports"][0]
    assert entry["hub_node"] == 1
    assert entry["t_partial_4"] == pytest.approx(entry["t_partial"][3], rel=1e-15)
    out = run_json(capsys, ["--seed", "4", "simulate", path, "--index-base", "1", "--walk",
                            "turw", "--mode", "hitting", "--source", "4", "--target", "1",
                            "--trials", "500"])
    assert out["samples"] == 500


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 2\n2 0 # caf\xe9\n")
    code = main(["centrality", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "parse_error"


def test_full_matrix_gate(tmp_path, capsys):
    big = str(tmp_path / "ring.txt")
    assert main(["-o", big, "generate", "--model", "ws", "--n", "600", "--k", "4",
                 "--beta", "0.0"]) == 0
    capsys.readouterr()
    out = run_json(capsys, ["hitting", big, "--walk", "turw"])
    assert "t_matrix" not in out["reports"][0]
    out = run_json(capsys, ["hitting", big, "--walk", "turw", "--full-matrix"])
    assert len(out["reports"][0]["t_matrix"]) == 600


def test_hitting_both_on_ba1000_passes_gate(tmp_path, capsys):
    # max t_partial <= max T, so this bound is no looser than 1e-7 * (1 + max T).
    graph = str(tmp_path / "ba1000.txt")
    assert main(["--seed", "1", "-o", graph, "generate", "--model", "ba", "--n", "1000",
                 "--m-attach", "2"]) == 0
    capsys.readouterr()
    out = run_json(capsys, ["hitting", graph, "--walk", "all", "--method", "both"])
    assert [r["kind"] for r in out["reports"]] == ["turw", "merw", "nbcrw"]
    for rep in out["reports"]:
        bound = 1e-7 * (1.0 + max(rep["t_partial"]))
        assert rep["spectral_vs_linear_max_gap"] <= bound, rep["kind"]


def test_hitting_both_refuses_a_gap_above_the_bound(tmp_path, capsys, monkeypatch):
    # A linear T off by 1e-6 of itself is about ten times past 1e-7 * (1 + max T).
    from nbwalk import cli
    exact = cli.hitting_linear

    def perturbed(p):
        report = exact(p)
        report.t[...] *= 1.0 + 1e-6
        return report

    monkeypatch.setattr(cli, "hitting_linear", perturbed)
    code = main(["hitting", rose2_file(tmp_path), "--walk", "turw", "--method", "both"])
    err = json.loads(capsys.readouterr().err)
    assert code == 7 and err["error"] == "ill_conditioned"
    assert re.fullmatch(r"turw walk: spectral and linear hitting times differ by \S+, above \S+",
                        err["message"])


def test_hitting_matrix_json_is_exact(tmp_path, capsys):
    from nbwalk import WalkKind, hitting_linear, parse_edge_list, transition

    path = rose2_file(tmp_path)
    out = run_json(capsys, ["hitting", path, "--walk", "merw", "--method", "linear"])
    g = parse_edge_list(Path(path).read_text())
    expected = hitting_linear(transition(WalkKind.MERW, g)).t
    assert np.array_equal(np.array(out["reports"][0]["t_matrix"]), expected)


def test_generate_er_complete(tmp_path, capsys):
    path = str(tmp_path / "er.txt")
    assert main(["-o", path, "generate", "--model", "er", "--n", "10", "--p", "1.0"]) == 0
    capsys.readouterr()
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith(("#", "%"))]
    assert len(lines) == 45
    header = Path(path).read_text().splitlines()[0]
    assert header.startswith("# model=er")


def test_generate_ba_edge_count(tmp_path, capsys):
    path = str(tmp_path / "ba.txt")
    assert main(["--seed", "1", "-o", path, "generate", "--model", "ba", "--n", "100",
                 "--m-attach", "2"]) == 0
    capsys.readouterr()
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith(("#", "%"))]
    assert len(lines) == 197


def test_generate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    argv = ["--seed", "9", "generate", "--model", "ws", "--n", "30", "--k", "4",
            "--beta", "0.2"]
    assert main(["-o", a] + argv) == 0
    assert main(["-o", b] + argv) == 0
    capsys.readouterr()
    assert Path(a).read_text() == Path(b).read_text()


def test_generate_missing_params_exit_code(capsys):
    assert main(["generate", "--model", "er", "--n", "10"]) == 6
    capsys.readouterr()


def test_rose_oracle_m5(capsys):
    out = run_json(capsys, ["rose-oracle", "5"])
    assert out["walks"]["nbcrw"]["t_hub"] == pytest.approx(38.0 / 15, rel=1e-12)
    assert out["kappa1"] == pytest.approx(9.0**0.25, rel=1e-12)


def test_compare_csv_matches_oracle(tmp_path, capsys):
    code = main(["--format", "csv", "compare", rose2_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("# manifest:")
    header = lines[1].split(",")
    assert header == ["kind", "n", "ipr", "pi_hub", "t_hub", "t_global", "method"]
    rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
    assert set(rows) == {"turw", "merw", "nbcrw"}
    assert float(rows["nbcrw"][4]) == pytest.approx(4.0 / 3 + math.sqrt(3.0), abs=1e-9)
    assert float(rows["turw"][5]) == pytest.approx(200.0 / 21, abs=1e-9)


def test_csv_floats_are_the_json_floats(tmp_path, capsys):
    graph = str(tmp_path / "rose20.txt")
    assert main(["-o", graph, "generate", "--model", "rose", "--m", "20"]) == 0
    for argv in (["stationary", graph, "--walk", "all"], ["compare", graph]):
        payload = run_json(capsys, argv)
        assert main(["--format", "csv", *argv]) == 0
        header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        if argv[0] == "stationary":
            values = [[report["kind"], node, pi] for report in payload["reports"]
                      for node, pi in enumerate(report["pi"])]
        else:
            values = [[row[key] for key in header] for row in payload["rows"]]
        cells = [(cell, value) for row, row_values in zip(rows, values, strict=True)
                 for cell, value in zip(row, row_values, strict=True)]
        assert any(isinstance(value, float) for _, value in cells)
        for cell, value in cells:
            assert cell == (float.__repr__(value) if isinstance(value, float) else str(value))


def test_scaling_turw_slope(capsys):
    out = run_json(capsys, ["scaling", "--kind", "turw", "--m-range", "10:1000"])
    assert out["slope"] == pytest.approx(1.0, abs=0.02)
    assert out["rows"][0]["n"] == 31


def test_scaling_nbcrw_corrected_exponent(capsys):
    out = run_json(capsys, ["scaling", "--kind", "nbcrw"])
    assert out["exponent"] == pytest.approx(1.5, abs=0.03)
    assert out["slope"] < 1.3  # the bare window slope is only an effective exponent


def test_generate_ignores_csv_format(capsys):
    assert main(["--format", "csv", "generate", "--model", "rose", "--m", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# model=rose") and lines[1] == "%N 7"


def test_scaling_bad_range_exit_code(capsys):
    assert main(["scaling", "--kind", "turw", "--m-range", "bogus"]) == 6
    capsys.readouterr()


def test_simulate_stationary_small(tmp_path, capsys):
    out = run_json(
        capsys,
        ["--seed", "4", "simulate", k3_file(tmp_path), "--walk", "turw",
         "--mode", "stationary", "--trials", "900", "--max-steps", "9000",
         "--burn-in", "50"],
    )
    for est, se in zip(out["estimates"], out["standard_errors"]):
        assert abs(est - 1.0 / 3) <= 3.0 * se
    assert "PCG64" in out["rng"]["algorithm"]


def test_simulate_hitting_small(tmp_path, capsys):
    out = run_json(
        capsys,
        ["--seed", "4", "simulate", k3_file(tmp_path), "--walk", "turw",
         "--mode", "hitting", "--source", "0", "--target", "1",
         "--trials", "2000", "--max-steps", "5000"],
    )
    assert abs(out["estimates"][0] - 2.0) <= 3.0 * out["standard_errors"][0]
    assert out["truncated"] == 0


def test_rerun_determinism_modulo_timing(tmp_path, capsys):
    path = rose2_file(tmp_path)
    simulate = ["--seed", "3", "simulate", path, "--walk", "nbcrw", "--mode", "stationary",
                "--trials", "400", "--max-steps", "4000"]
    for argv in (["stationary", path, "--walk", "all", "--check"], ["centrality", path],
                 simulate):
        a = run_json(capsys, argv)
        b = run_json(capsys, argv)
        a["manifest"].pop("timing_s")
        b["manifest"].pop("timing_s")
        assert a == b


def test_parser_is_built_once_and_each_call_parses_afresh(tmp_path, capsys):
    """A usage error, then calls that switch subcommands and drop flags, in one process."""
    assert build_parser() is build_parser()
    rose = rose2_file(tmp_path)
    calls = [["centrality", rose, "--bogus"], ["--seed", "5", "stationary", rose, "--check"],
             ["hitting", rose, "--target", "hub"], ["stationary", rose], ["centrality", rose]]
    for argv in calls:
        fresh = build_parser.__wrapped__()
        try:
            expected = vars(fresh.parse_args(argv))
        except InvalidParamsError as exc:
            expected = str(exc)
        code = main(argv)
        captured = capsys.readouterr()
        if isinstance(expected, str):
            assert code == 6 and json.loads(captured.err)["message"] == expected
            continue
        assert code == 0, captured.err
        expected.pop("output")
        assert json.loads(captured.out)["manifest"]["params"] == expected


# Every malformed invocation: argv (with graph-file placeholders), exit code, error code.
MALFORMED = {
    "usage-unknown-flag": (["centrality", "{rose}", "--bogus"], 6, "invalid_params"),
    "usage-no-command": ([], 6, "invalid_params"),
    "usage-bad-choice": (["stationary", "{rose}", "--walk", "foo"], 6, "invalid_params"),
    "usage-non-integer-seed": (["--seed", "x", "centrality", "{rose}"], 6, "invalid_params"),
    "usage-global-flag-after-command": (["centrality", "{rose}", "--seed", "1"], 6,
                                        "invalid_params"),
    "scaling-points-0": (["scaling", "--kind", "turw", "--points", "0"], 6, "invalid_params"),
    "scaling-points-negative": (["scaling", "--kind", "turw", "--points", "-3"], 6,
                                "invalid_params"),
    "scaling-points-1": (["scaling", "--kind", "turw", "--points", "1"], 6, "invalid_params"),
    "scaling-bad-m-range": (["scaling", "--kind", "turw", "--m-range", "bogus"], 6,
                            "invalid_params"),
    # Two petal counts cannot determine the six parameters of the corrected fit.
    "scaling-m-range-2:3": (["scaling", "--kind", "turw", "--m-range", "2:3"], 6,
                            "invalid_params"),
    "output-missing-directory": (["-o", "{unwritable}", "centrality", "{rose}"], 6,
                                 "invalid_params"),
    "missing-file": (["centrality", "{absent}"], 1, "parse_error"),
    "directory-as-input": (["centrality", "{dir}"], 1, "parse_error"),
    "non-utf8-input": (["centrality", "{latin1}"], 1, "parse_error"),
    "bad-node-id-hitting": (["hitting", "{rose}", "--target", "7"], 6, "invalid_params"),
    "bad-node-id-simulate": (["simulate", "{rose}", "--walk", "turw", "--mode", "hitting",
                              "--source", "abc", "--target", "1"], 6, "invalid_params"),
    "generate-missing-params": (["generate", "--model", "er", "--n", "10"], 6, "invalid_params"),
    "tree": (["centrality", "{tree}"], 2, "tree_graph"),
    "disconnected": (["centrality", "{two}"], 3, "not_connected"),
    "simulate-trials-0": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                           "--trials", "0"], 6, "invalid_params"),
    "simulate-burn-in-negative": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                                   "--burn-in", "-1"], 6, "invalid_params"),
    "simulate-trials-2^64": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                              "--trials", str(2**64)], 6, "invalid_params"),
    "simulate-burn-in-1e19": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                               "--burn-in", str(10**19)], 6, "invalid_params"),
    "simulate-max-steps-5": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                              "--max-steps", "5"], 6, "invalid_params"),
    "csv-centrality": (["--format", "csv", "centrality", "{rose}"], 6, "invalid_params"),
    "csv-rose-oracle": (["--format", "csv", "rose-oracle", "5"], 6, "invalid_params"),
    "csv-simulate": (["--format", "csv", "simulate", "{k3}", "--walk", "turw", "--mode",
                      "stationary"], 6, "invalid_params"),
    "seed-negative-simulate": (["--seed", "-1", "simulate", "{k3}", "--walk", "turw", "--mode",
                                "stationary"], 6, "invalid_params"),
    "seed-negative-generate": (["--seed", "-1", "generate", "--model", "ba", "--n", "10",
                                "--m-attach", "2"], 6, "invalid_params"),
    "rose-oracle-m-huge": (["rose-oracle", str(10**400)], 6, "invalid_params"),
    "rose-oracle-m-above-2^53": (["rose-oracle", str(2**53 + 1)], 6, "invalid_params"),
    "scaling-m-range-huge": (["scaling", "--kind", "turw", "--m-range", f"2:{10**400}"], 6,
                             "invalid_params"),
    "simulate-max-steps-huge": (["simulate", "{k3}", "--walk", "turw", "--mode", "hitting",
                                 "--source", "0", "--target", "1", "--max-steps", str(10**400)],
                                6, "invalid_params"),
    "generate-rose-beyond-array-index": (["generate", "--model", "rose", "--m", "2",
                                          "--l", str(10**60)], 6, "invalid_params"),
    "scaling-points-huge": (["scaling", "--kind", "turw", "--points", str(10**9)], 6,
                            "invalid_params"),
    # 4·10⁹ edges, and 4.5·10⁹ expected edges, from node counts below the cap.
    "generate-rose-edges-4e9": (["generate", "--model", "rose", "--m", str(10**9)], 6,
                                "invalid_params"),
    "generate-er-edges-4.5e9": (["generate", "--model", "er", "--n", "100000", "--p", "0.9"], 6,
                                "invalid_params"),
}
# Generators asked for more nodes than any array may hold, before any loop or allocation.
GENERATE_ARGS = {"ws": ["--k", "4", "--beta", "0.1"], "er": ["--p", "0.1"],
                 "ba": ["--m-attach", "2"]}
for model, extra in GENERATE_ARGS.items():
    for label, n in (("huge", 10**400), ("1e9", 10**9)):
        MALFORMED[f"generate-{model}-n-{label}"] = (
            ["generate", "--model", model, "--n", str(n), *extra], 6, "invalid_params")
# Rows run in a child with 2 GB of address space: unrefused, they would allocate gigabytes.
IN_CHILD = ({"scaling-points-huge", "generate-rose-edges-4e9", "generate-er-edges-4.5e9"}
            | {f"generate-{model}-n-1e9" for model in GENERATE_ARGS})


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_invocation_is_one_json_error(tmp_path, capsys, name):
    argv, exit_code, error = MALFORMED[name]
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"0 1\n1 2\n2 0 # caf\xe9\n")
    files = {
        "rose": rose2_file(tmp_path),
        "k3": k3_file(tmp_path),
        "tree": write_graph(tmp_path, "p3.txt", "0 1\n1 2\n"),
        "two": write_graph(tmp_path, "two.txt", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"),
        "latin1": str(latin1),
        "dir": str(tmp_path),
        "absent": str(tmp_path / "absent.txt"),
        "unwritable": str(tmp_path / "no-such-dir" / "out.json"),
    }
    argv = [arg.format(**files) for arg in argv]
    if name in IN_CHILD:
        proc = run_limited(argv)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == exit_code, err
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and err["message"]
    assert err["error"] == error


@pytest.mark.parametrize("argv", [
    ["hitting", "{rose}", "--walk", "all", "--method", "both", "--target", "hub,global,99"],
    ["simulate", "{rose}", "--walk", "turw", "--mode", "hitting", "--source", "0",
     "--target", "99"],
], ids=["hitting", "simulate"])
def test_node_ids_are_resolved_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran before the node ids were resolved")

    for name in ("hitting_spectral", "hitting_linear", "transition", "reversible_walk"):
        monkeypatch.setattr(f"nbwalk.cli.{name}", refuse)
    code = main([arg.format(rose=rose2_file(tmp_path)) for arg in argv])
    err = json.loads(capsys.readouterr().err)
    assert code == 6
    assert err == {"error": "invalid_params", "message": "no node with id '99' in the graph file"}


def test_help_exits_zero_and_lists_no_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--threads" not in out and "--tol" not in out


# Finite floats, with the edge cases of float repr drawn explicitly.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-300, 0.1, 1.7976931348623157e308]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**100, 2**100), FLOATS, st.text(),
    st.booleans().map(np.bool_), st.integers(-2**62, 2**62).map(np.int64), FLOATS.map(np.float64),
)
# Matrices over one writer block, drawn from a few values: several blocks, each formatted
# from its table of distinct values.
BLOCK_MATRICES = st.builds(
    lambda values, cols, extra, seed: np.random.default_rng(seed).choice(
        np.array(values, dtype=float), size=(WRITE_BLOCK // cols + extra, cols)),
    st.lists(FLOATS, min_size=1, max_size=5), st.integers(1, 300), st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-2**62, 2**62), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.integers(0, 3).flatmap(lambda cols: st.lists(
        st.lists(FLOATS, min_size=cols, max_size=cols), max_size=4,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), cols))),
    BLOCK_MATRICES,
)
JSON_TREES = st.recursive(
    SCALARS | ARRAYS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=24,
)


def as_lists(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_TREES)
def test_writer_matches_stdlib_encoding(obj):
    assert "".join(_iterjson(obj)) == json.dumps(as_lists(obj), indent=2, sort_keys=True)


def test_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError) as stdlib:
        json.dumps(object())
    assert str(stdlib.value) == "Object of type object is not JSON serializable"
    with pytest.raises(TypeError, match=f"^{re.escape(str(stdlib.value))}$"):
        "".join(_iterjson(object()))


def test_writer_emits_null_for_non_finite():
    values = [math.nan, math.inf, -math.inf, 1.5]
    expected = json.dumps([None, None, None, 1.5], indent=2)
    assert "".join(_iterjson(values)) == expected
    assert "".join(_iterjson(np.array(values))) == expected
    assert "".join(_iterjson({"v": np.array(values)})) == json.dumps(
        {"v": [None, None, None, 1.5]}, indent=2)
    assert "".join(_iterjson(np.float64(math.nan))) == "null"


# Both sides of repr's switches to exponent notation, at 1e16 and at 1e-4.
REPR_EDGES = [1e16, np.nextafter(1e16, 0.0), 1e-4, np.nextafter(1e-4, 0.0)]
REPEATED = np.random.default_rng(5).choice([0.5, 1.0 / 3.0, -2.0, 7e22], size=(90, 400))
WRITER_CASES = {
    "signed-zeros": np.tile([0.0, -0.0, 0.0, -0.0], (3, 2)),
    "subnormals": np.tile([5e-324, 1e-310, -2.2250738585072e-308, 0.0], (4, 1)),
    "repr-switches": np.tile(REPR_EDGES + [-v for v in REPR_EDGES], (2, 1)),
    "transposed": REPEATED.T,
    "strided": REPEATED[::3, 1::7],
    "int64": np.arange(-40, 40, dtype=np.int64).reshape(8, 10),
    "all-distinct": np.random.default_rng(6).random((30, 700)),
    # Vectors and int64 matrices go through the block table too.
    "vector-signed-zeros": np.array([0.0, -0.0, 1.5, 0.0, -0.0, -0.0]),
    "vector-over-a-block": np.random.default_rng(8).choice(
        [0.5, 1.0 / 3.0, -0.0, 7e22], size=WRITE_BLOCK + 9),
    "int64-over-a-block": np.random.default_rng(9).choice(
        np.array([-3, 0, 7, 2**62], dtype=np.int64), size=(WRITE_BLOCK // 50 + 3, 50)),
}


@pytest.mark.parametrize("matrix", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_writer_matrix_cases(matrix):
    assert "".join(_iterjson(matrix)) == json.dumps(matrix.tolist(), indent=2)
    assert "".join(_iterjson({"m": [matrix]})) == json.dumps({"m": [matrix.tolist()]}, indent=2)


def test_writer_matrix_with_one_nan():
    matrix = REPEATED.copy()
    matrix[50, 3] = math.nan
    expected = matrix.astype(object)
    expected[50, 3] = None
    assert "".join(_iterjson(matrix)) == json.dumps(expected.tolist(), indent=2)


def test_writer_scratch_memory_is_below_one_matrix():
    matrix = np.random.default_rng(7).random((1000, 1000))  # every entry distinct
    tracemalloc.start()
    try:
        size = sum(map(len, _iterjson(matrix)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 18 * matrix.size
    assert peak < matrix.nbytes


def test_rose_hitting_matrices_are_stdlib_encoding(tmp_path, capsys):
    graph = str(tmp_path / "rose80.txt")
    assert main(["-o", graph, "generate", "--model", "rose", "--m", "80"]) == 0
    assert main(["hitting", graph, "--walk", "all"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert [len(report["t_matrix"]) for report in payload["reports"]] == [241] * 3
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_hitting_output_equals_stdlib_encoding(tmp_path):
    graph = str(tmp_path / "ba60.txt")
    assert main(["--seed", "2", "-o", graph, "generate", "--model", "ba", "--n", "60",
                 "--m-attach", "2"]) == 0
    argv = ["hitting", graph, "--walk", "all", "--method", "both", "--target", "hub,global"]
    out = tmp_path / "out.json"
    assert main(["-o", str(out), *argv]) == 0
    text = out.read_text()
    payload, _digest, _rows = COMMANDS["hitting"](build_parser().parse_args(argv))
    payload["manifest"] = json.loads(text)["manifest"]  # same run apart from timing_s
    assert all("t_matrix" in report for report in payload["reports"])
    expected = json.dumps(payload, indent=2, sort_keys=True, default=lambda a: a.tolist())
    assert text == expected + "\n"


def test_truncated_simulate_is_strict_json(tmp_path, capsys):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    # Node 6 is four steps from node 3, so every trial stops at the 2-step cap.
    code = main(["simulate", rose2_file(tmp_path), "--walk", "turw", "--mode", "hitting",
                 "--source", "3", "--target", "6", "--trials", "50", "--max-steps", "2"])
    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert code == 0 and out["truncated"] == 50
    assert out["estimates"] == [None] and out["standard_errors"] == [None]
    assert out["estimate_excluding_truncated"] is None


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["hitting", rose2_file(tmp_path)])
    assert code == EXIT_STDOUT_CLOSED == 141
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_stdout_is_an_invalid_params_refusal():
    # Every write to /dev/full fails with ENOSPC: one JSON error line, no traceback.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "nbwalk.cli", "rose-oracle", "5"], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 6
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "invalid_params",
                                    "message": f"cannot write stdout: {os.strerror(errno.ENOSPC)}"}


# The exit codes of the README's error table.
EXIT_CODES = {1: "parse_error", 2: "tree_graph", 3: "not_connected", 4: "zero_denominator",
              5: "convergence_failure", 6: "invalid_params", 7: "ill_conditioned"}
INT64_PAST = str(2**63 + 5)  # an id that no int64 holds


@st.composite
def edge_list_files(draw):
    """``(data, base, comma)``: an edge-list file of at most 12 nodes in one of the accepted layouts.

    The shape is a tree, a unicyclic graph, a denser random graph or two
    components; the lines may repeat an edge, hold a self-loop, a negative
    id, an id past int64, a stray token or a byte that is not UTF-8, and a
    ``%N`` header may widen or contradict the ids.
    """
    n = draw(st.sampled_from(range(1, 13)))
    shape = draw(st.sampled_from(["tree", "unicyclic", "random", "random", "random",
                                  "disconnected"]))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = list(enumerate(parents, start=1))
    if shape == "unicyclic" and n >= 3:
        edges.append((n - 1, draw(st.integers(0, n - 3))))
    elif shape == "random":
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v]
    elif shape == "disconnected" and n >= 2:
        edges = [(u, v) for u, v in edges if (u < n // 2) == (v < n // 2)]
    base = draw(st.sampled_from([0, 1]))
    comma = draw(st.booleans())
    lines = [[str(u + base), str(v + base)] for u, v in edges]
    junk = draw(st.sampled_from([None] * 15 + [["0", "0"], [INT64_PAST, "1"], ["1", "-1"],
                                               ["x", "1"], ["2", "3", "4"], ["\udcff", "1"]]))
    lines += [junk] if junk else []
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines))[::-1])  # a duplicate edge
    lines = draw(st.permutations(lines))
    text = [(", " if comma else draw(st.sampled_from([" ", "\t", "  "]))).join(line)
            for line in lines]
    header = draw(st.sampled_from([None] * 5 + [n, n, n + 1, n - 1, INT64_PAST]))
    if header is not None:
        text.insert(draw(st.integers(0, len(text))), f"%N {header}")
    if draw(st.booleans()):
        text.insert(0, "# a comment")
    return ("\n".join(text) + "\n").encode("utf-8", "surrogateescape"), base, comma


WALKS = st.sampled_from(["turw", "merw", "nbcrw"])
NODE_IDS = st.sampled_from(["0", "1", "2", "3", "5", "11", "12", INT64_PAST, "x"])


def _graph_argv(command, draw):
    """The subcommand arguments after the graph file, for a graph command."""
    if command == "stationary":
        return ["--walk", draw(WALKS | st.just("all"))] + draw(st.sampled_from([[], ["--check"]]))
    if command == "hitting":
        return (["--walk", draw(WALKS | st.just("all")),
                 "--method", draw(st.sampled_from(["spectral", "linear", "both"])),
                 "--target", draw(st.sampled_from(["global", "hub", "hub,global", "0,hub", "3",
                                                   "12", ""]))]
                + draw(st.sampled_from([[], ["--full-matrix"], ["--verbatim-eq26"]])))
    if command == "simulate":
        mode = draw(st.sampled_from(["hitting", "stationary"]))
        argv = ["--walk", draw(WALKS), "--mode", mode,
                "--trials", draw(st.sampled_from(["1", "4", "9", "30", "0"])),
                "--max-steps", draw(st.sampled_from(["1", "20", "80", "300", "0"])),
                "--burn-in", draw(st.sampled_from(["0", "5", "10", "20", "-1"]))]
        if mode == "hitting" and draw(st.sampled_from([True, True, True, False])):
            argv += ["--source", draw(NODE_IDS), "--target", draw(NODE_IDS)]
        return argv
    return []


@st.composite
def invocations(draw):
    """``(argv, data)``: argv of any subcommand, with ``{graph}`` for the graph file, and its bytes."""
    flags = ["--seed", draw(st.sampled_from(["0", "1", "3", "7"] * 2 + ["-1"])),
             "--format", draw(st.sampled_from(["json"] * 7 + ["csv"]))]
    command = draw(st.sampled_from(["centrality", "stationary", "hitting", "compare", "simulate",
                                    "generate", "rose-oracle", "scaling"]))
    data = None
    if command == "generate":
        model = draw(st.sampled_from(["rose", "er", "ba", "ws"]))
        n = str(draw(st.sampled_from(range(-1, 201))))
        argv = ["generate", "--model", model] + {
            "rose": ["--m", str(draw(st.integers(-1, 6))), "--l", str(draw(st.integers(-1, 6)))],
            "er": ["--n", n, "--p", str(draw(st.sampled_from([-0.5, 0.0, 0.05, 0.5, 1.0, 2.0])))],
            "ba": ["--n", n, "--m-attach", str(draw(st.integers(-1, 5)))],
            "ws": ["--n", n, "--k", str(draw(st.integers(-1, 7))),
                   "--beta", str(draw(st.sampled_from([-1.0, 0.0, 0.2, 1.0, 1.5])))],
        }[model]
        argv = draw(st.sampled_from([argv] * 3 + [argv[:-2]]))  # the last parameter may be missing
    elif command == "rose-oracle":
        argv = ["rose-oracle", str(draw(st.sampled_from(range(-1, 41)))), "--walk",
                draw(WALKS | st.just("all"))]
    elif command == "scaling":
        argv = ["scaling", "--kind", draw(WALKS),
                "--m-range", draw(st.sampled_from(["2:30", "10:60", "5:5", "1:9", "30:2", "a:b"])),
                "--points", str(draw(st.integers(-1, 8)))]
    else:
        data, base, comma = draw(edge_list_files())
        argv = [command, "{graph}", "--index-base", str(base),
                "--delimiter", "comma" if comma else "whitespace"] + _graph_argv(command, draw)
    return flags + argv, data


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_no_input_gives_a_traceback(tmp_path_factory, invocation):
    # Every run either succeeds with an empty stderr or fails with one JSON
    # line whose error matches its documented exit code.
    argv, data = invocation
    if data is not None:
        path = tmp_path_factory.getbasetemp() / "fuzzed-graph.txt"
        path.write_bytes(data)
        argv = [str(path) if arg == "{graph}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        if "json" in argv and "generate" not in argv:
            json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} in the output"))
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        assert json.loads(lines[0])["error"] == EXIT_CODES[code]
