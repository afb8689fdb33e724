"""End-to-end command-line tests driven through cli.main."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbwalk.cli import COMMANDS, EXIT_STDOUT_CLOSED, _iterjson, build_parser, main


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
    assert out["solver"]["path"] == "power"
    assert out["solver"]["iterations"] > 0
    assert isinstance(out["solver"]["polished"], bool)
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
    """A triangle 0-1-2 with the pendant path 2-3-...-(length + 2)."""
    edges = ["0 1", "1 2", "0 2"] + [f"{i} {i + 1}" for i in range(2, length + 2)]
    return write_graph(tmp_path, f"tripath{length}.txt", "\n".join(edges) + "\n")


@pytest.mark.parametrize("length, argv", [
    (80, ["compare"]),
    (80, ["hitting", "--walk", "merw"]),
    (40, ["hitting", "--walk", "merw", "--method", "both"]),
], ids=["compare", "hitting-merw", "hitting-merw-both"])
def test_numerically_singular_laplacian_is_ill_conditioned(tmp_path, capsys, length, argv):
    # MERW's psi_1 underflows along the 80-node path, so the weighted
    # Laplacian is singular in floating point.  Along 40 nodes the Cholesky
    # factor still exists, but the spectral and linear hitting times disagree
    # by far more than the cross-check allows.
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
    "simulate-max-steps-5": (["simulate", "{k3}", "--walk", "turw", "--mode", "stationary",
                              "--max-steps", "5"], 6, "invalid_params"),
    "csv-centrality": (["--format", "csv", "centrality", "{rose}"], 6, "invalid_params"),
    "csv-rose-oracle": (["--format", "csv", "rose-oracle", "5"], 6, "invalid_params"),
    "csv-simulate": (["--format", "csv", "simulate", "{k3}", "--walk", "turw", "--mode",
                      "stationary"], 6, "invalid_params"),
}


@pytest.mark.parametrize("argv,exit_code,error", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_invocation_is_one_json_error(tmp_path, capsys, argv, exit_code, error):
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
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == exit_code, captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"} and err["message"]
    assert err["error"] == error


def test_help_exits_zero_and_lists_no_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--threads" not in out and "--tol" not in out


def test_numeric_round_trip_precision(tmp_path, capsys):
    code = main(["--format", "csv", "stationary", rose2_file(tmp_path), "--walk", "nbcrw"])
    captured = capsys.readouterr()
    assert code == 0
    value = captured.out.strip().splitlines()[2].split(",")[2]
    assert float(value) == float(format(float(value), ".17g"))


# Finite floats, with the edge cases of float repr drawn explicitly.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-300, 0.1, 1.7976931348623157e308]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**100, 2**100), FLOATS, st.text(),
    st.booleans().map(np.bool_), st.integers(-2**62, 2**62).map(np.int64), FLOATS.map(np.float64),
)
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-2**62, 2**62), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.integers(0, 3).flatmap(lambda cols: st.lists(
        st.lists(FLOATS, min_size=cols, max_size=cols), max_size=4,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), cols))),
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


def test_writer_emits_null_for_non_finite():
    values = [math.nan, math.inf, -math.inf, 1.5]
    expected = json.dumps([None, None, None, 1.5], indent=2)
    assert "".join(_iterjson(values)) == expected
    assert "".join(_iterjson(np.array(values))) == expected
    assert "".join(_iterjson(np.float64(math.nan))) == "null"


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
