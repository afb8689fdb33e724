"""Self-test of the benchmark's tracer and metric set on a tiny corpus.

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import nbwalk
from nbwalk import models

import harness
import run
import tracer as tracing
import workloads
from workloads import GraphSpec, Job, Workload


def tiny_workload(seed):
    """Every command and every traced layer, on graphs of at most 40 nodes."""
    graphs = (
        GraphSpec("rose4", "rose m=4", lambda: models.make_rose(models.RoseSpec(m=4)), rose_m=4),
        GraphSpec("ba40", "BA(40,2)", lambda: models.gen_ba(40, 2, 1)),
        GraphSpec("uni30", "6-cycle + 24 tree nodes",
                  lambda: workloads.cycle_with_trees(6, 24, 2), unicyclic=True),
    )
    hub, peripheral = workloads.relabeling(seed, "rose4", 13)[[0, 3]]
    jobs = (
        Job("ba40", "centrality"),
        Job("ba40", "stationary", ("--walk", "all")),
        Job("ba40", "hitting", ("--walk", "all", "--target", "hub,global")),
        Job("ba40", "compare"),
        Job("rose4", "hitting", ("--walk", "all", "--method", "both", "--target", "hub,global")),
        Job("rose4", "stationary", ("--walk", "all", "--check")),
        Job("rose4", "simulate", ("--walk", "nbcrw", "--mode", "hitting", "--source", str(hub),
                                  "--target", str(peripheral), "--trials", "200"),
            mc_seed=workloads.sub_seed(seed, 3)),
        Job("ba40", "simulate", ("--walk", "turw", "--mode", "stationary", "--trials", "400",
                                 "--max-steps", "40000", "--burn-in", "100"),
            mc_seed=workloads.sub_seed(seed, 4)),
        Job("uni30", "stationary", ("--walk", "nbcrw",)),
        Job("uni30", "verify_b_vs_m"),
    )
    return Workload("tiny", graphs, jobs)


def _run(tmp_path, trace, seed=5):
    return harness.run(tiny_workload(seed), seed, 0.01, trace, tmp_path / f"work-{trace}")


def _bindings():
    """Identity of every name the tracer may rebind."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name == "nbwalk" or name.startswith("nbwalk."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    for attr in tracing.LINALG:
        snapshot[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    snapshot[("Graph", "adjacency")] = vars(nbwalk.Graph)["adjacency"]
    snapshot.update({("COMMANDS", k): v for k, v in nbwalk.cli.COMMANDS.items()})
    return snapshot


def test_install_rebinds_every_importer_and_uninstall_restores():
    before = _bindings()
    t = tracing.Tracer()
    t.install()
    try:
        during = _bindings()
        for module in ("nbwalk", "nbwalk.nbcentrality", "nbwalk.walks", "nbwalk.hitting"):
            assert during[(module, "nb_centrality")] is not before[(module, "nb_centrality")]
        assert during[("nbwalk.cli", "parse_edge_list")] is not before[
            ("nbwalk.cli", "parse_edge_list")]
        for attr in tracing.LINALG:
            assert during[("numpy.linalg", attr)] is not before[("numpy.linalg", attr)]
        assert during[("Graph", "adjacency")] is not before[("Graph", "adjacency")]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_run_restores_names_and_emits_every_per_layer_metric(tmp_path):
    before = _bindings()
    result, report = _run(tmp_path, trace=True)
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []
    assert result["correct"], report["failures"]
    metrics = result["metrics"]
    assert list(metrics) == list(harness.PER_LAYER)
    for name, (unit, _better) in harness.PER_LAYER.items():
        assert metrics[name]["unit"] == unit
    # Every layer the tiny corpus exercises is seen by the tracer.
    for name in ("graph.validate.calls", "graph.adjacency.redundant",
                 "nbcentrality.nb_centrality.redundant", "spectral.leading_eig.iters",
                 "spectral.sym_eig.redundant", "linalg.eigh.calls", "linalg.solve.calls",
                 "simulate.steps", "linalg.gflop_computed", "cli.output_bytes",
                 "nbcentrality.verify_b_vs_m.total_s", "walks.stationary_generic.total_s",
                 "hitting.hitting_linear.self_s", "models.gen.self_s", "cli.simulate.total_s"):
        assert metrics[name]["value"] > 0, name
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    result, report = _run(tmp_path, trace=False)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= len(tiny_workload(5).jobs)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _better) in harness.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["mc_steps_per_s"] > 0
    assert set(report["inputs"]) == {"rose4", "ba40", "uni30"}


def test_exact_counts_repeat_on_the_same_seed(tmp_path):
    first, _ = _run(tmp_path / "a", trace=True)
    second, _ = _run(tmp_path / "b", trace=True)
    for name in harness.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in harness.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in harness.PER_LAYER.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
