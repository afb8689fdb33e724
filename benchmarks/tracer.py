"""Outside-in tracer for the nbwalk benchmark.

The tracer wraps each layer's public functions from outside the library: every
name is rebound in each ``nbwalk`` module that imported it, ``Graph.adjacency``
is replaced by a wrapping property, and the ``numpy.linalg`` entry points the
library calls are wrapped too.  ``uninstall`` puts every original back.

Each call becomes a span ``[name, start, end, parent, job, context, attrs]``.
Spans stay in memory until the run ends; self times are computed from them
afterwards.  ``redundant`` marks a call whose input was already seen in the
same job.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

NAME, START, END, PARENT, JOB, CONTEXT, ATTRS = range(7)


def _graph_key(args, kwargs):
    g = args[0]
    return (g.n, g.edges)


def _centrality_key(args, kwargs):
    return (_graph_key(args, kwargs), kwargs.get("tol", args[1] if len(args) > 1 else None))


def _matrix_key(args, kwargs):
    m = np.ascontiguousarray(args[0], dtype=float)
    return (m.shape, hashlib.blake2b(m.view(np.uint8), digest_size=16).digest())


def _iterations(args, kwargs, result):
    return {"iters": int(result.iterations)}


def _simulated_steps(args, kwargs, result):
    cfg = next(a for a in (*args, *kwargs.values()) if hasattr(a, "trials"))
    if result.mode == "hitting":
        # Truncated trials count the full step cap they walked.
        steps = int(round(result.estimate_cap_bound * cfg.trials))
        return {"steps": steps, "truncated": int(result.truncated), "trials": cfg.trials}
    return {"steps": cfg.burn_in + int(result.samples), "truncated": 0, "trials": 0}


def _flops_eigh(args, kwargs, result):
    n = np.shape(args[0])[-1]
    return {"flops": 9.0 * n**3}


def _flops_eig(args, kwargs, result):
    n = np.shape(args[0])[-1]
    return {"flops": 25.0 * n**3}


def _flops_solve(args, kwargs, result):
    n = np.shape(args[0])[-1]
    b = np.shape(args[1])
    k = 1 if len(b) == 1 else b[-1]
    return {"flops": 2.0 / 3.0 * n**3 + 2.0 * n * n * k}


def _flops_lstsq(args, kwargs, result):
    m, n = np.shape(args[0])
    return {"flops": 4.0 * m * n * n + 8.0 * n**3}


# Operation counts per LAPACK driver, computed from the argument shapes
# (Golub & Van Loan, tables 8.6.1 and 5.5.1): symmetric eigensolver with
# vectors 9n^3, nonsymmetric with vectors 25n^3, LU solve 2n^3/3 + 2n^2k,
# SVD least squares 4mn^2 + 8n^3.
LINALG = {
    "eigh": _flops_eigh,
    "eig": _flops_eig,
    "solve": _flops_solve,
    "lstsq": _flops_lstsq,
}

# (module, function, span name, redundancy key, attributes from the result)
FUNCTIONS = (
    ("nbwalk.graph", "parse_edge_list", "graph.parse_edge_list", None, None),
    ("nbwalk.graph", "validate", "graph.validate", None, None),
    ("nbwalk.nbcentrality", "nb_centrality", "nbcentrality.nb_centrality", _centrality_key, None),
    ("nbwalk.nbcentrality", "build_m_matrix", "nbcentrality.build_m_matrix", None, None),
    ("nbwalk.nbcentrality", "verify_b_vs_m", "nbcentrality.verify_b_vs_m", None, None),
    ("nbwalk.spectral", "leading_eig", "spectral.leading_eig", None, _iterations),
    ("nbwalk.spectral", "sym_eig", "spectral.sym_eig", _matrix_key, None),
    ("nbwalk.walks", "transition", "walks.transition", None, None),
    ("nbwalk.walks", "stationary_closed", "walks.stationary_closed", None, None),
    ("nbwalk.walks", "stationary_generic", "walks.stationary_generic", None, None),
    ("nbwalk.hitting", "hitting_spectral", "hitting.hitting_spectral", None, None),
    ("nbwalk.hitting", "hitting_linear", "hitting.hitting_linear", None, None),
    ("nbwalk.simulate", "simulate_hitting", "simulate", None, _simulated_steps),
    ("nbwalk.simulate", "simulate_stationary", "simulate", None, _simulated_steps),
    ("nbwalk.models", "gen_ba", "models.gen", None, None),
    ("nbwalk.models", "gen_er", "models.gen", None, None),
    ("nbwalk.models", "gen_ws", "models.gen", None, None),
    ("nbwalk.models", "make_rose", "models.gen", None, None),
    ("nbwalk.cli", "main", "cli.main", None, None),
)

CLI_COMMANDS = ("centrality", "stationary", "hitting", "compare", "simulate")


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self):
        self.spans = []
        self.context = "setup"
        self._stack = []
        self._job = None
        self._seen = {}
        self._patches = []

    # -- span recording -------------------------------------------------

    def begin_job(self, job):
        self._job = job
        self._seen = {}

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self._job, self.context, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for the benchmark's own job span)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, key=None, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = {}
            if key is not None:
                seen = tracer._seen.setdefault(name, set())
                k = key(args, kwargs)
                extra["redundant"] = k in seen
                seen.add(k)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
            if extra:
                tracer.spans[idx][ATTRS] = extra
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, value):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        """Rebind every wrapped name; ``uninstall`` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nbwalk" or name.startswith("nbwalk."))]
        for module_name, func_name, span_name, key, attrs in FUNCTIONS:
            original = getattr(sys.modules[module_name], func_name)
            wrapped = self._wrap(span_name, original, key, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        cli = sys.modules["nbwalk.cli"]
        for command in CLI_COMMANDS:
            self._patch(cli.COMMANDS, command,
                        self._wrap(f"cli.{command}", cli.COMMANDS[command]))
        graph_cls = sys.modules["nbwalk.graph"].Graph
        prop = vars(graph_cls)["adjacency"]
        self._patch(graph_cls, "adjacency",
                    property(self._wrap("graph.adjacency", prop.fget, _graph_key)))
        for func_name, flops in LINALG.items():
            self._patch(np.linalg, func_name,
                        self._wrap(f"linalg.{func_name}", getattr(np.linalg, func_name),
                                   attrs=flops))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_stats(spans, context):
    """Per-name totals over the spans recorded in ``context``.

    Returns ``{name: {"calls", "self_s", "total_s", "redundant", <attrs>}}``.
    Self time is a span's duration minus that of its direct children.  Total
    time counts only spans with no ancestor of the same name, so a layer that
    calls itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            child[sp[PARENT]] += sp[END] - sp[START]
    stats = {}
    for pos, sp in enumerate(spans):
        if sp[CONTEXT] != context:
            continue
        name = sp[NAME]
        dur = sp[END] - sp[START]
        row = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "redundant": 0})
        row["calls"] += 1
        row["self_s"] += dur - child[pos]
        parent = sp[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            row["total_s"] += dur
        for key, value in (sp[ATTRS] or {}).items():
            row[key] = row.get(key, 0) + value
    return stats
