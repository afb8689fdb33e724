"""Command-line front end.

Subcommands: centrality, stationary, hitting, generate, rose-oracle, compare,
scaling, simulate.  Global flags go before the subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (
    IllConditionedError, InvalidParamsError, NbwalkError, NotConnectedError, ParseError,
)
from .graph import MAX_EXACT_INT, check_entries, parse_edge_list
from .hitting import (
    MAX_RELATIVE_ERROR, eq26_audit, hitting_linear, hitting_spectral, hub_node, walk_hitting,
)
from .models import (
    RoseSpec, corrected_exponent, gen_ba, gen_er, gen_ws, loglog_slope, make_rose, rose4_oracle,
    scaling_table,
)
from .nbcentrality import eigenvector_centrality, nb_centrality
from .simulate import SimConfig, simulate_hitting, simulate_stationary
from .walks import (
    WalkKind, detailed_balance_residual, ipr, reversible_walk, stationary_generic, transition,
)

def _table(entries):
    """CSV rows of flat records that share their keys: the keys, then each record's values."""
    return [list(entries[0])] + [list(entry.values()) for entry in entries]


def _node_rows(reports, key, labels):
    """CSV rows ``[kind, node, value]`` of the per-node array ``key`` of each report."""
    return [["kind", "node", key]] + [[entry["kind"], node, value] for entry in reports
                                      for node, value in zip(labels, entry[key])]


# Matrix entries formatted at a time: bounds the writer's scratch arrays, whatever the matrix size.
WRITE_BLOCK = 1 << 14


def _matrix_rows(obj, level):
    """The rows of a 2-D int64 or float64 array as ``_iterjson`` writes them at ``level``.

    One string per row; the rows go in blocks of about ``WRITE_BLOCK``
    entries.  The values of a block are keyed on their bit patterns, so -0.0
    and 0.0 stay apart.  Where at most half a block's entries are distinct,
    as in the hitting times of a symmetric graph, or where it holds a NaN or
    an infinity, each distinct value is formatted once (NaN and ±inf as
    ``null``) and the block is written from that table; otherwise entry by entry.
    """
    fmt = float.__repr__ if obj.dtype.kind == "f" else int.__repr__
    inner = "\n" + "  " * (level + 1)
    sep, close = "," + inner, "\n" + "  " * level + "]"
    step = max(1, WRITE_BLOCK // obj.shape[1])
    for start in range(0, obj.shape[0], step):
        block = obj[start:start + step]
        keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        values = keys.view(obj.dtype)
        finite = np.isfinite(values)
        if 2 * keys.size <= block.size or not finite.all():
            table = np.array(list(map(fmt, values.tolist())), dtype=object)
            table[~finite] = "null"
            rows = table[inverse.reshape(block.shape)].tolist()  # numpy < 2 returns it flat
        else:
            rows = (map(fmt, row) for row in block.tolist())
        for row in rows:
            yield "[" + inner + sep.join(row) + close


def _iterjson(obj, level=0):
    """Yield the text of ``json.dumps(obj, indent=2, sort_keys=True)``, piece by piece.

    An ndarray is written as its nested list, one row per piece, so no matrix
    is ever held as one string.  A scalar is written as ``json.dumps``
    writes it, except that NaN and infinities are written as ``null`` (the
    stdlib writes ``NaN``), so the output stays strict JSON.
    """
    if isinstance(obj, (np.generic, np.ndarray)) and obj.ndim == 0:
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        yield "null"
    elif (isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.size
          and obj.dtype in (np.int64, np.float64)):
        if obj.ndim == 1:  # a vector is a one-row matrix
            yield from _matrix_rows(obj[None], level)
            return
        inner = "\n" + "  " * (level + 1)
        for i, row in enumerate(_matrix_rows(obj, level + 1)):
            yield ("," if i else "[") + inner + row
        yield "\n" + "  " * level + "]"
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        if isinstance(obj, dict):
            brackets = "{}"
            items = [(encode_basestring_ascii(key) + ": ", obj[key]) for key in sorted(obj)]
        else:
            brackets, items = "[]", [("", value) for value in obj]
        if not items:
            yield brackets
            return
        inner = "\n" + "  " * (level + 1)
        for i, (prefix, value) in enumerate(items):
            yield ("," if i else brackets[0]) + inner + prefix
            yield from _iterjson(value, level + 1)
        yield "\n" + "  " * level + brackets[1]
    else:
        yield json.dumps(obj)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``invalid_params`` instead of printing usage and exiting 2."""

    def error(self, message):
        raise InvalidParamsError(f"{self.prog}: {message}")


def _seed(text):
    """``--seed`` as numpy's generators take it: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    parser = _Parser(prog="nbwalk", description=__doc__)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("-o", "--output", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [kind.value for kind in WalkKind]

    def add_graph_arg(p):
        p.add_argument("graph_file")
        p.add_argument("--index-base", type=int, choices=[0, 1], default=0)
        p.add_argument("--delimiter", choices=["whitespace", "comma"], default="whitespace")

    p = sub.add_parser("centrality", help="kappa, non-backtracking and eigenvector centralities")
    add_graph_arg(p)

    p = sub.add_parser("stationary", help="stationary distributions per walk kind")
    add_graph_arg(p)
    p.add_argument("--walk", choices=[*kinds, "all"], default="all")
    p.add_argument("--check", action="store_true",
                   help="cross-check with the linear solve and detailed balance")

    p = sub.add_parser("hitting", help="hitting-time reports")
    add_graph_arg(p)
    p.add_argument("--walk", choices=[*kinds, "all"], default="all")
    p.add_argument("--method", choices=["spectral", "linear", "both"], default="spectral")
    p.add_argument("--target", default="global",
                   help="'hub', 'global', or a node id; comma-separated combinations allowed")
    p.add_argument("--full-matrix", action="store_true",
                   help="emit the full pairwise matrix even above 500 nodes")
    p.add_argument("--verbatim-eq26", action="store_true",
                   help="audit the printed pairwise-formula prefactor against the oracle")

    p = sub.add_parser("generate", help="write a seeded model graph as an edge list")
    p.add_argument("--model", choices=["rose", "er", "ba", "ws"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int, help="rose petal count")
    p.add_argument("--l", type=int, default=RoseSpec.l, help="rose cycle length")
    p.add_argument("--m-attach", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float)

    p = sub.add_parser("rose-oracle", help="closed-form reference values for rose graphs")
    p.add_argument("m", type=int)
    p.add_argument("--walk", choices=[*kinds, "all"], default="all")

    p = sub.add_parser("compare", help="per-kind summary table for one graph")
    add_graph_arg(p)

    p = sub.add_parser("scaling", help="global mean hitting time vs size from closed forms")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--m-range", default="10:1000")
    p.add_argument("--points", type=int, default=40)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check")
    add_graph_arg(p)
    p.add_argument("--walk", choices=kinds, required=True)
    p.add_argument("--mode", choices=["stationary", "hitting"], required=True)
    p.add_argument("--source", default=None, help="node id as written in the graph file")
    p.add_argument("--target", default=None, help="node id as written in the graph file")
    p.add_argument("--trials", type=int, default=SimConfig.trials,
                   help="hitting: independent trials; stationary: sqrt(trials) chains")
    p.add_argument("--max-steps", type=int, default=SimConfig.max_steps)
    p.add_argument("--burn-in", type=int, default=SimConfig.burn_in,
                   help="stationary: uncounted steps each chain walks first")
    return parser


def _load_graph(args):
    try:
        with open(args.graph_file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(str(exc))
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}")
    delimiter = "," if args.delimiter == "comma" else None
    g, duplicates = parse_edge_list(text, index_base=args.index_base, delimiter=delimiter,
                                    return_duplicates=True)
    # Every command needs a connected graph.  Refuse too few edges before any
    # O(N) array is made: a huge node id would otherwise exhaust memory first.
    if g.num_edges < g.n - 1:
        raise NotConnectedError(
            f"graph is not connected: {g.num_edges} edges cannot connect {g.n} nodes")
    return g, {"input_digest": hashlib.sha256(raw).hexdigest(), "duplicate_edges": duplicates}


def _node_index(g, node_id):
    """Internal index of the node whose id in the graph file is ``node_id``."""
    try:
        return g.labels.index(int(node_id))
    except ValueError:
        raise InvalidParamsError(f"no node with id {node_id!r} in the graph file")


def _walk_kinds(value):
    return list(WalkKind) if value == "all" else [WalkKind(value)]


def cmd_centrality(args):
    g, inputs = _load_graph(args)
    nc = nb_centrality(g)
    evc = eigenvector_centrality(g)
    return {
        "kappa": nc.kappa,
        "x": nc.x,
        "y": nc.y,
        "residual": nc.residual,
        "solver": {"path": nc.path, "iterations": nc.iterations},
        "eigenvector_centrality": evc.vector,
        "eigenvector_solver": {
            "path": evc.path, "iterations": evc.iterations, "residual": evc.residual},
        "degrees": g.degrees,
    }, inputs, None


def _stationary_entry(kind, g, args):
    walk = reversible_walk(kind, g)
    sd = walk.stationary()
    entry = {
        "kind": kind.value,
        "pi": sd.pi,
        "ipr": ipr(sd.pi),
        "method": sd.method,
    }
    if args.check:
        p = walk.transition()
        generic = stationary_generic(p)
        entry["check"] = {
            "closed_vs_linear_max_gap": float(np.max(np.abs(sd.pi - generic.pi))),
            "detailed_balance_residual": detailed_balance_residual(sd.pi, p),
        }
    return entry


def cmd_stationary(args):
    g, inputs = _load_graph(args)
    reports = [_stationary_entry(kind, g, args) for kind in _walk_kinds(args.walk)]
    return {"reports": reports}, inputs, _node_rows(reports, "pi", g.labels)


def cmd_hitting(args):
    g, inputs = _load_graph(args)
    # Every target is resolved before any solve; t_global is always reported.
    targets = [t.strip() for t in str(args.target).split(",")]
    hub = hub_node(g) if "hub" in targets else None
    nodes = [_node_index(g, t) for t in targets if t not in ("", "hub", "global")]
    reports = []
    for kind in _walk_kinds(args.walk):
        entry = {"kind": kind.value, "method": args.method}
        audit = kind is WalkKind.NBCRW and args.verbatim_eq26
        spectral = linear = None
        if args.method in ("spectral", "both") or audit:
            spectral = hitting_spectral(kind, g)
        if args.method in ("linear", "both") or audit:
            linear = hitting_linear(transition(kind, g))
        main = linear if args.method == "linear" else spectral
        entry["t_global"] = main.t_global
        entry["t_partial"] = main.t_partial
        if g.n <= 500 or args.full_matrix:
            entry["t_matrix"] = main.t
        if args.method == "both":
            gap = float(np.max(np.abs(spectral.t - linear.t)))
            bound = MAX_RELATIVE_ERROR * (1.0 + float(spectral.t.max()))
            if not gap <= bound:
                raise IllConditionedError(
                    f"{kind.value} walk: spectral and linear hitting times differ by "
                    f"{gap:.3e}, above {bound:.3e}")
            entry["spectral_vs_linear_max_gap"] = gap
        if hub is not None:
            entry["hub_node"] = g.labels[hub]
            entry["t_hub"] = float(main.t_partial[hub])
        for node in nodes:
            entry[f"t_partial_{g.labels[node]}"] = float(main.t_partial[node])
        if audit:
            entry["eq26_audit"] = eq26_audit(spectral, linear)
        reports.append(entry)
    return {"reports": reports}, inputs, _node_rows(reports, "t_partial", g.labels)


# Per model: the parameters it reads (also its header fields) and its generator.
GENERATORS = {
    "rose": (("m", "l"), lambda a: make_rose(RoseSpec(m=a.m, l=a.l))),
    "er": (("n", "p"), lambda a: gen_er(a.n, a.p, a.seed)),
    "ba": (("n", "m_attach"), lambda a: gen_ba(a.n, a.m_attach, a.seed)),
    "ws": (("n", "k", "beta"), lambda a: gen_ws(a.n, a.k, a.beta, a.seed)),
}


def _generate_graph(args):
    names, make = GENERATORS[args.model]
    params = {name: getattr(args, name) for name in names}
    missing = ["--" + name.replace("_", "-") for name, value in params.items() if value is None]
    if missing:
        raise InvalidParamsError(f"{args.model} model needs {', '.join(missing)}")
    return make(args), params


def cmd_generate(args):
    g, params = _generate_graph(args)
    lines = [f"# model={args.model} " + " ".join(f"{k}={v}" for k, v in params.items())
             + f" seed={args.seed} nbwalk={__version__}"]
    lines.append(f"%N {g.n}")
    lines += [f"{u} {v}" for u, v in g.edge_array.tolist()]
    return {"edge_list": "\n".join(lines) + "\n"}, None, None


def cmd_rose_oracle(args):
    oracle = rose4_oracle(args.m)
    kinds = _walk_kinds(args.walk)
    payload = {
        "m": oracle.m,
        "n": 3 * oracle.m + 1,
        "kappa1": oracle.kappa1,
        "x_hub": oracle.x_hub,
        "x_int": oracle.x_int,
        "x_per": oracle.x_per,
        "walks": {
            kind.value: {
                "pi_hub": oracle.pi[kind][0],
                "pi_int": oracle.pi[kind][1],
                "pi_per": oracle.pi[kind][2],
                "t_hub": oracle.t_hub[kind],
                "t_global": oracle.t_global[kind],
                "t_class": oracle.t_class[kind],
            }
            for kind in kinds
        },
    }
    return payload, None, None


def cmd_compare(args):
    g, inputs = _load_graph(args)
    hub = hub_node(g)
    entries = []
    for kind in WalkKind:
        walk = reversible_walk(kind, g)
        sd = walk.stationary()
        report = walk_hitting(walk)
        entries.append({
            "kind": kind.value,
            "n": g.n,
            "ipr": ipr(sd.pi),
            "pi_hub": float(sd.pi[hub]),
            "t_hub": float(report.t_partial[hub]),
            "t_global": report.t_global,
            "method": report.method,
        })
    return {"hub_node": g.labels[hub], "rows": entries}, inputs, _table(entries)


def cmd_scaling(args):
    try:
        lo, hi = (int(v) for v in args.m_range.split(":"))
    except ValueError:
        raise InvalidParamsError(f"bad --m-range {args.m_range!r}; expected LO:HI")
    if not (2 <= lo < hi <= MAX_EXACT_INT):
        raise InvalidParamsError("m range must satisfy 2 <= LO < HI <= 2**53")
    if args.points < 2:
        raise InvalidParamsError(f"--points must be >= 2 to fit a slope, got {args.points}")
    check_entries(args.points, "--points")
    ms = np.unique(np.geomspace(lo, hi, num=args.points).astype(int))
    rows_data = scaling_table(args.kind, ms.tolist())
    entries = [{"m": m, "n": n, "t_global": t} for m, (n, t) in zip(ms.tolist(), rows_data)]
    return {"kind": args.kind, "slope": loglog_slope(rows_data),
            "exponent": corrected_exponent(rows_data), "rows": entries}, None, _table(entries)


def cmd_simulate(args):
    g, inputs = _load_graph(args)
    # The configuration and the node ids are checked before the walk is built.
    cfg = SimConfig(seed=args.seed, trials=args.trials, max_steps=args.max_steps,
                    burn_in=args.burn_in)
    if args.mode == "hitting":
        if args.source is None or args.target is None:
            raise InvalidParamsError("hitting mode needs --source and --target")
        nodes = _node_index(g, args.source), _node_index(g, args.target)
    walk = reversible_walk(args.walk, g)
    result = (simulate_hitting(walk, *nodes, cfg) if args.mode == "hitting"
              else simulate_stationary(walk, cfg))
    payload = dict(vars(result), walk=args.walk)
    if result.mode == "stationary":  # the truncation bounds are hitting-only
        del payload["estimate_excluding_truncated"], payload["estimate_cap_bound"]
    return payload, inputs, None


COMMANDS = {
    "centrality": cmd_centrality,
    "stationary": cmd_stationary,
    "hitting": cmd_hitting,
    "generate": cmd_generate,
    "rose-oracle": cmd_rose_oracle,
    "compare": cmd_compare,
    "scaling": cmd_scaling,
    "simulate": cmd_simulate,
}
NO_TABLE = ("centrality", "rose-oracle", "simulate")  # refused with --format csv
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by the signal


def _manifest(args, inputs, elapsed):
    """The run's record; ``inputs`` holds the graph file's fields, None for commands without one."""
    params = {k: v for k, v in sorted(vars(args).items()) if k not in ("output",)}
    return {
        "command": args.command,
        "params": params,
        "input_digest": None,
        **(inputs or {}),
        "seed": args.seed,
        "version": __version__,
        "timing_s": elapsed,
    }


def _write_output(args, payload, rows, manifest):
    if args.command == "generate":
        text = payload["edge_list"]
    elif args.format == "csv":
        header = "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"
        body = "\n".join(",".join(float.__repr__(c) if isinstance(c, float) else str(c)
                                  for c in row) for row in rows)
        text = header + body + "\n"
    else:
        payload = dict(payload)
        payload["manifest"] = manifest
        # Streamed: a full hitting matrix as one string costs several times its size.
        text = itertools.chain(_iterjson(payload), ("\n",))
    try:
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(text)
            fh.flush()
    except OSError as exc:
        if args.output:
            raise InvalidParamsError(f"cannot write --output {args.output!r}: {exc.strerror}")
        # Point stdout at the null device so the interpreter's final flush stays quiet.
        with contextlib.suppress(OSError, ValueError):  # a stdout without a file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise  # the reader closed stdout early (``nbwalk ... | head``)
        raise InvalidParamsError(f"cannot write stdout: {exc.strerror}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.format == "csv" and args.command in NO_TABLE:
            raise InvalidParamsError(f"{args.command} has no table to write as CSV")
        start = time.perf_counter()
        payload, inputs, rows = COMMANDS[args.command](args)
        elapsed = time.perf_counter() - start
        _write_output(args, payload, rows, _manifest(args, inputs, elapsed))
    except NbwalkError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return exc.exit_code
    except BrokenPipeError:
        return EXIT_STDOUT_CLOSED
    return 0


if __name__ == "__main__":
    sys.exit(main())
