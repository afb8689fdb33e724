"""Runs one benchmark workload: set-up, timed passes, checks and metrics.

``run.py`` is the entry point; it pins the BLAS threads before this module
imports numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from nbwalk import cli, graph as graph_mod, nbcentrality

import checks
import machine
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

# name: (unit, better) of every end-to-end metric, reported with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_TIMES = [
    "graph.parse_edge_list.self_s", "graph.validate.self_s", "graph.adjacency.self_s",
    "nbcentrality.nb_centrality.self_s", "nbcentrality.nb_centrality.total_s",
    "nbcentrality.build_m_matrix.self_s", "nbcentrality.verify_b_vs_m.total_s",
    "spectral.leading_eig.self_s", "spectral.sym_eig.total_s",
    "linalg.eigh.self_s", "linalg.eig.self_s", "linalg.solve.self_s", "linalg.lstsq.self_s",
    "walks.transition.total_s", "walks.stationary_closed.total_s",
    "walks.stationary_generic.total_s",
    "hitting.hitting_spectral.total_s", "hitting.hitting_spectral.self_s",
    "hitting.hitting_linear.total_s", "hitting.hitting_linear.self_s",
    "simulate.self_s", "cli.main.self_s",
] + [f"cli.{c}.total_s" for c in tracing.CLI_COMMANDS]
# Counts that must repeat exactly for a given seed.
_COUNTS = [
    "graph.validate.calls", "graph.adjacency.calls", "graph.adjacency.redundant",
    "nbcentrality.nb_centrality.calls", "nbcentrality.nb_centrality.redundant",
    "spectral.leading_eig.calls", "spectral.leading_eig.iters",
    "spectral.sym_eig.calls", "spectral.sym_eig.redundant",
    "linalg.eigh.calls", "linalg.eig.calls", "linalg.solve.calls",
    "simulate.steps",
]

# name: (unit, better) of every per-layer metric, reported with tracing on.
PER_LAYER = {name: ("s", "lower") for name in _TIMES}
PER_LAYER.update({name: ("count", "lower") for name in _COUNTS})
PER_LAYER.update({
    "linalg.gflop_computed": ("GFLOP", "lower"),
    "simulate.truncated_frac": ("ratio", "lower"),
    "simulate.steps_per_s": ("1/s", "higher"),
    "models.gen.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
})
EXACT_COUNTS = _COUNTS + ["linalg.gflop_computed"]

_TIMING_FIELD = re.compile(rb'"timing_s": [^,\n]*')


class JobError(Exception):
    pass


def edge_list(g):
    return (f"%N {g.n}\n" + "".join(f"{u} {v}\n" for (u, v) in g.edges)).encode()


def edge_list_digest(g):
    return hashlib.sha256(edge_list(g)).hexdigest()


def write_edge_list(g, path):
    data = edge_list(g)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


class Runner:
    """One workload in one process; files live under ``workdir``."""

    def __init__(self, workload, workdir, tracer=None):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.files = {}
        self.infos = {}

    # -- set-up -----------------------------------------------------------

    def setup(self, seed):
        """Generate and write every input, then warm every code path once."""
        (self.workdir / "out").mkdir(parents=True, exist_ok=True)
        infos = {}
        for spec in self.workload.graphs + (workloads.WARM,):
            base = spec.make()
            perm = workloads.relabeling(seed, spec.key, base.n)
            g = workloads.relabel(base, perm)
            path = self.workdir / f"{spec.key}.txt"
            digest = write_edge_list(g, path)
            infos[spec.key] = checks.GraphInfo.of(spec, g, digest, edge_list_digest(base), perm)
            self.files[spec.key] = path
        if self.infos and any(self.infos[k].digest != infos[k].digest for k in infos):
            raise JobError("set-up is not deterministic: input digests differ between repeats")
        self.infos = infos
        for command in sorted({job.command for job in self.workload.jobs}):
            name, args = workloads.WARMUP[command]
            self.execute(workloads.Job(workloads.WARM.key, name, args, mc_seed=0))

    # -- jobs -------------------------------------------------------------

    def output_path(self, job):
        return self.workdir / "out" / (job.name.replace("/", "__") + ".json")

    def execute(self, job):
        """Run one job; returns the library result for ``verify_b_vs_m``, else None."""
        path = self.files[job.graph]
        if job.command == "verify_b_vs_m":
            g = graph_mod.parse_edge_list(path.read_text())
            return nbcentrality.verify_b_vs_m(g)
        argv = ["-o", str(self.output_path(job))]
        if job.mc_seed is not None:
            argv += ["--seed", str(job.mc_seed)]
        argv += [job.command, str(path), *job.args]
        code = cli.main(argv)
        if code != 0:
            raise JobError(f"exit code {code}")
        return None

    def run_pass(self, context):
        """Run the job list once; returns (wall, job times, results, errors)."""
        times, results, errors = [], {}, {}
        start = time.perf_counter()
        for index, job in enumerate(self.workload.jobs):
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    self.tracer.context = context
                    self.tracer.begin_job(index)
                    results[job.name] = self.tracer.span("bench.job", self.execute, job)
                else:
                    results[job.name] = self.execute(job)
            except Exception as exc:  # a failed job is counted, not fatal
                errors[job.name] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - t0)
        return time.perf_counter() - start, times, results, errors

    def collect(self, results, errors):
        """Read each job's output: payloads, output digests and byte counts."""
        payloads, digests, nbytes = {}, {}, 0
        for job in self.workload.jobs:
            if job.name in errors:
                continue
            if job.command == "verify_b_vs_m":
                payloads[job.name] = results[job.name]
                digests[job.name] = hashlib.sha256(
                    json.dumps(results[job.name], sort_keys=True).encode()).hexdigest()
                continue
            data = self.output_path(job).read_bytes()
            nbytes += len(data)
            payloads[job.name] = json.loads(data)
            digests[job.name] = hashlib.sha256(_TIMING_FIELD.sub(b"", data)).hexdigest()
        return payloads, digests, nbytes


def layer_metrics(spans, context, output_bytes):
    """Per-layer metric values of one traced pass."""
    stats = tracing.layer_stats(spans, context)
    values = {}
    for name in _TIMES + _COUNTS:
        layer, stat = name.rsplit(".", 1)
        values[name] = stats.get(layer, {}).get(stat, 0)
    sim = stats.get("simulate", {})
    values["simulate.truncated_frac"] = (sim["truncated"] / sim["trials"]
                                         if sim.get("trials") else 0.0)
    values["simulate.steps_per_s"] = (sim["steps"] / sim["total_s"]
                                      if sim.get("total_s") else 0.0)
    values["linalg.gflop_computed"] = sum(
        row.get("flops", 0.0) for name, row in stats.items() if name.startswith("linalg.")) / 1e9
    values["cli.output_bytes"] = output_bytes
    values["trace.self_sum_s"] = sum(row["self_s"] for row in stats.values())
    return values


def import_seconds():
    """Wall time to import the CLI, numpy included, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nbwalk.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def repeat_setup(runner, seed):
    """Set up ``SETUP_REPEATS`` times; returns the repeat times, their import
    part and, when tracing, the generators' self time per repeat."""
    tracer = runner.tracer
    setup_times, import_times, gen_self = [], [], []
    for repeat in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        if tracer is not None:
            tracer.context = f"setup-{repeat}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            runner.setup(seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(import_times[-1] + time.perf_counter() - t0)
        if tracer is not None:
            stats = tracing.layer_stats(tracer.spans, f"setup-{repeat}")
            gen_self.append(stats.get("models.gen", {}).get("self_s", 0.0))
    return setup_times, import_times, gen_self


class Passes:
    """Timings, check results and layer metrics accumulated over passes."""

    def __init__(self, workload):
        self.workload = workload
        self.walls, self.traced_walls = [], []
        self.per_job = {}
        self.failures, self.layer_runs = [], []
        self.digests = None
        self.attempted = self.failed = 0
        self.mc_steps, self.mc_seconds = 0, 0.0
        self.peak_rss_mb = None

    def record(self, runner, checker, context, traced):
        if traced:
            runner.tracer.install()
        try:
            wall, times, results, errors = runner.run_pass(context)
        finally:
            if traced:
                runner.tracer.uninstall()
        if self.peak_rss_mb is None:
            # Before any output is parsed for the checks.
            self.peak_rss_mb = _peak_rss_mb()
        (self.traced_walls if traced else self.walls).append(wall)
        payloads, digests, nbytes = runner.collect(results, errors)
        for job, t in zip(self.workload.jobs, times):
            self.attempted += 1
            if job.name in errors:
                problems = [f"{job.name}: {errors[job.name]}"]
            else:
                problems = checker.check(job, payloads[job.name], payloads)
            if self.digests is not None and digests.get(job.name) != self.digests.get(job.name):
                problems.append(f"{job.name}: output differs from the first pass")
            if problems:
                self.failed += 1
                self.failures += problems
            if traced:
                continue
            self.per_job.setdefault(job.name, []).append(t)
            if job.command == "simulate" and not problems:
                self.mc_steps += checks.mc_steps(job, payloads[job.name])
                self.mc_seconds += t
        self.digests = self.digests or digests
        if traced:
            self.layer_runs.append(layer_metrics(runner.tracer.spans, context, nbytes))


def run(workload, seed, seconds, trace, workdir):
    """Run one workload built for ``seed``; returns (result line, report).

    Each set-up repeat is an import in a fresh interpreter plus input
    generation, file writing and warm-up in this process; ``setup_s`` is their
    median.  Only the first repeat pays the process's one-off first dense call.
    Passes then run until the next one would end after ``seconds``; in a
    traced run the first pass is untraced, to measure the tracing overhead.
    """
    runner = Runner(workload, workdir, tracing.Tracer() if trace else None)
    setup_times, import_times, gen_self = repeat_setup(runner, seed)
    checker = checks.Checker(workload, runner.infos, checks.load_reference())
    passes = Passes(workload)
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes.walls)
        passes.record(runner, checker, f"pass-{len(passes.walls) + len(passes.traced_walls)}",
                      traced)
        used = time.perf_counter() - start
        typical = statistics.median(passes.walls + passes.traced_walls)
        if (passes.traced_walls or not trace) and used + typical > seconds:
            break

    failures = passes.failures
    if trace:
        metrics, count_problems = _aggregate_layers(passes.layer_runs)
        failures += count_problems
        metrics["models.gen.self_s"] = statistics.median(gen_self)
        metrics["trace.wall_s"] = statistics.median(passes.traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(passes.walls)
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                          / metrics["trace.untraced_wall_s"] - 1.0)
        metrics["trace.coverage"] = metrics["trace.self_sum_s"] / metrics["trace.wall_s"]
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(passes.walls),
            # Median over the job list of each job's median over passes, so
            # that it always falls on the same jobs whatever the pass count.
            "job_p50_s": statistics.median(statistics.median(t) for t in passes.per_job.values()),
            "peak_rss_mb": passes.peak_rss_mb,
        }
        units = END_TO_END

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "inputs": {spec.key: {"label": spec.label, "n": runner.infos[spec.key].n,
                              "edges": int(runner.infos[spec.key].u.size),
                              "sha256": runner.infos[spec.key].digest}
                   for spec in workload.graphs},
        "machine": machine.facts(ROOT),
        "pass_walls_s": passes.walls,
        "traced_pass_walls_s": passes.traced_walls,
        "job_samples": sum(len(t) for t in passes.per_job.values()),
        "job_median_s": {name: statistics.median(t) for name, t in passes.per_job.items()},
        "setup_repeats_s": setup_times,
        "setup_import_s": import_times,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "fail_frac": passes.failed / passes.attempted,
        "mc_steps": passes.mc_steps,
        "mc_steps_per_s": passes.mc_steps / passes.mc_seconds if passes.mc_seconds else None,
        "reference_checked_jobs": checker.referenced,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, report


def _aggregate_layers(runs):
    """Median time per metric over traced passes; counts must agree exactly."""
    out, problems = {}, []
    for name in runs[0]:
        values = [r[name] for r in runs]
        if name in EXACT_COUNTS:
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, problems


def _peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def clean(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
