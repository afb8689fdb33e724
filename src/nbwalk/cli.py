"""Command-line front end.

Subcommands: centrality, stationary, hitting, generate, rose-oracle, compare,
scaling, simulate.  Global flags go before the subcommand.
"""

from __future__ import annotations

import argparse
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
from .errors import InvalidParamsError, NbwalkError, NotConnectedError, ParseError
from .graph import parse_edge_list
from .hitting import eq26_audit, hitting_linear, hitting_spectral, hub_node, walk_hitting
from .models import (
    RoseSpec, corrected_exponent, gen_ba, gen_er, gen_ws, loglog_slope, make_rose, rose4_oracle,
    scaling_table,
)
from .nbcentrality import nb_centrality
from .simulate import SimConfig, simulate_hitting, simulate_stationary
from .walks import (
    WalkKind, adjacency_leading_eigvec, detailed_balance_residual, ipr, reversible_walk,
    stationary_generic, transition,
)

def _fmt(x):
    """Round-trip-exact text for a float."""
    return format(float(x), ".17g")


def _iterjson(obj, level=0):
    """Yield the text of ``json.dumps(obj, indent=2, sort_keys=True)``, piece by piece.

    An ndarray is written as its nested list, one row per piece, so no matrix
    is ever held as one string.  NaN and infinities are written as ``null``
    (the stdlib writes ``NaN``), so the output stays strict JSON.
    """
    if isinstance(obj, (np.generic, np.ndarray)) and obj.ndim == 0:
        obj = obj.tolist()
    if isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif obj is None or obj is True or obj is False:
        yield "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, float):
        yield float.__repr__(obj) if math.isfinite(obj) else "null"
    elif (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size
          and obj.dtype.kind in "iuf" and np.isfinite(obj).all()):
        # One piece per row: the repr of every entry, joined once.
        inner = "\n" + "  " * (level + 1)
        text = map(float.__repr__ if obj.dtype.kind == "f" else int.__repr__, obj.tolist())
        yield "[" + inner + ("," + inner).join(text) + "\n" + "  " * level + "]"
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
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``invalid_params`` instead of printing usage and exiting 2."""

    def error(self, message):
        raise InvalidParamsError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="nbwalk", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("-o", "--output", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph_file")
        p.add_argument("--index-base", type=int, choices=[0, 1], default=0)
        p.add_argument("--delimiter", choices=["whitespace", "comma"], default="whitespace")

    p = sub.add_parser("centrality", help="kappa, non-backtracking and eigenvector centralities")
    add_graph_arg(p)

    p = sub.add_parser("stationary", help="stationary distributions per walk kind")
    add_graph_arg(p)
    p.add_argument("--walk", choices=["turw", "merw", "nbcrw", "all"], default="all")
    p.add_argument("--check", action="store_true",
                   help="cross-check with the linear solve and detailed balance")

    p = sub.add_parser("hitting", help="hitting-time reports")
    add_graph_arg(p)
    p.add_argument("--walk", choices=["turw", "merw", "nbcrw", "all"], default="all")
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
    p.add_argument("--l", type=int, default=4, help="rose cycle length")
    p.add_argument("--m-attach", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float)

    p = sub.add_parser("rose-oracle", help="closed-form reference values for rose graphs")
    p.add_argument("m", type=int)
    p.add_argument("--walk", choices=["turw", "merw", "nbcrw", "all"], default="all")

    p = sub.add_parser("compare", help="per-kind summary table for one graph")
    add_graph_arg(p)

    p = sub.add_parser("scaling", help="global mean hitting time vs size from closed forms")
    p.add_argument("--kind", choices=["turw", "merw", "nbcrw"], required=True)
    p.add_argument("--m-range", default="10:1000")
    p.add_argument("--points", type=int, default=40)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check")
    add_graph_arg(p)
    p.add_argument("--walk", choices=["turw", "merw", "nbcrw"], required=True)
    p.add_argument("--mode", choices=["stationary", "hitting"], required=True)
    p.add_argument("--source", default=None, help="node id as written in the graph file")
    p.add_argument("--target", default=None, help="node id as written in the graph file")
    p.add_argument("--trials", type=int, default=100_000,
                   help="hitting: independent trials; stationary: sqrt(trials) chains")
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--burn-in", type=int, default=1000,
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
    g = parse_edge_list(text, index_base=args.index_base, delimiter=delimiter)
    # Every command needs a connected graph.  Refuse too few edges before any
    # O(N) array is made: a huge node id would otherwise exhaust memory first.
    if g.num_edges < g.n - 1:
        raise NotConnectedError(
            f"graph is not connected: {g.num_edges} edges cannot connect {g.n} nodes")
    return g, hashlib.sha256(raw).hexdigest()


def _node_index(g, node_id):
    """Internal index of the node whose id in the graph file is ``node_id``."""
    try:
        return g.labels.index(int(node_id))
    except ValueError:
        raise InvalidParamsError(f"no node with id {node_id!r} in the graph file")


def _walk_kinds(value):
    return list(WalkKind) if value == "all" else [WalkKind(value)]


def cmd_centrality(args):
    g, digest = _load_graph(args)
    nc = nb_centrality(g)
    _, psi1 = adjacency_leading_eigvec(g)
    return {
        "kappa": nc.kappa,
        "x": nc.x,
        "y": nc.y,
        "residual": nc.residual,
        "solver": {"path": nc.path, "iterations": nc.iterations, "polished": nc.polished},
        "eigenvector_centrality": psi1,
        "degrees": g.degrees,
    }, digest, None


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
    g, digest = _load_graph(args)
    reports = [_stationary_entry(kind, g, args) for kind in _walk_kinds(args.walk)]
    rows = [["kind", "node", "pi"]]
    for entry in reports:
        for node, value in zip(g.labels, entry["pi"]):
            rows.append([entry["kind"], node, _fmt(value)])
    return {"reports": reports}, digest, rows


def cmd_hitting(args):
    g, digest = _load_graph(args)
    targets = [t.strip() for t in str(args.target).split(",") if t.strip()]
    reports = []
    for kind in _walk_kinds(args.walk):
        entry = {"kind": kind.value, "method": args.method}
        spectral = linear = None
        if args.method in ("spectral", "both"):
            spectral = hitting_spectral(kind, g)
        if args.method in ("linear", "both"):
            linear = hitting_linear(transition(kind, g))
        main = spectral if spectral is not None else linear
        entry["t_global"] = main.t_global
        entry["t_partial"] = main.t_partial
        if g.n <= 500 or args.full_matrix:
            entry["t_matrix"] = main.t
        if spectral is not None and linear is not None:
            entry["spectral_vs_linear_max_gap"] = float(np.max(np.abs(spectral.t - linear.t)))
        for tgt in targets:
            if tgt == "hub":
                h = hub_node(g)
                entry["hub_node"] = g.labels[h]
                entry["t_hub"] = float(main.t_partial[h])
            elif tgt == "global":
                pass  # t_global always present
            else:
                node = _node_index(g, tgt)
                entry[f"t_partial_{g.labels[node]}"] = float(main.t_partial[node])
        if kind is WalkKind.NBCRW and args.verbatim_eq26:
            audit = eq26_audit(g)
            entry["eq26_audit"] = {
                "t_verbatim": audit["t_verbatim"],
                "t_consistent": audit["t_consistent"],
                "max_gap_consistent_vs_linear": audit["max_gap_consistent_vs_linear"],
                "max_gap_verbatim_vs_linear": audit["max_gap_verbatim_vs_linear"],
                "note": audit["note"],
            }
        reports.append(entry)
    rows = [["kind", "node", "t_partial"]]
    for entry in reports:
        for node, value in zip(g.labels, entry["t_partial"]):
            rows.append([entry["kind"], node, _fmt(value)])
    return {"reports": reports}, digest, rows


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
    lines += [f"{u} {v}" for (u, v) in g.edges]
    return {"edge_list": "\n".join(lines) + "\n", "n": g.n, "edges": g.num_edges}, None, None


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
    g, digest = _load_graph(args)
    hub = hub_node(g)
    rows = [["kind", "n", "ipr", "pi_hub", "t_hub", "t_global", "method"]]
    entries = []
    for kind in WalkKind:
        walk = reversible_walk(kind, g)
        sd = walk.stationary()
        report = walk_hitting(walk)
        entry = {
            "kind": kind.value,
            "n": g.n,
            "ipr": ipr(sd.pi),
            "pi_hub": float(sd.pi[hub]),
            "t_hub": float(report.t_partial[hub]),
            "t_global": report.t_global,
            "method": report.method,
        }
        entries.append(entry)
        rows.append([entry["kind"], g.n, _fmt(entry["ipr"]), _fmt(entry["pi_hub"]),
                     _fmt(entry["t_hub"]), _fmt(entry["t_global"]), entry["method"]])
    return {"hub_node": g.labels[hub], "rows": entries}, digest, rows


def cmd_scaling(args):
    try:
        lo, hi = (int(v) for v in args.m_range.split(":"))
    except ValueError:
        raise InvalidParamsError(f"bad --m-range {args.m_range!r}; expected LO:HI")
    if not (2 <= lo < hi):
        raise InvalidParamsError("m range must satisfy 2 <= LO < HI")
    if args.points < 2:
        raise InvalidParamsError(f"--points must be >= 2 to fit a slope, got {args.points}")
    ms = np.unique(np.geomspace(lo, hi, num=args.points).astype(int))
    rows_data = scaling_table(args.kind, ms.tolist())
    rows = [["m", "n", "t_global"]]
    entries = []
    for m, (n, t) in zip(ms.tolist(), rows_data):
        entries.append({"m": m, "n": n, "t_global": t})
        rows.append([m, n, _fmt(t)])
    return {"kind": args.kind, "slope": loglog_slope(rows_data),
            "exponent": corrected_exponent(rows_data), "rows": entries}, None, rows


def cmd_simulate(args):
    g, digest = _load_graph(args)
    walk = reversible_walk(args.walk, g)
    cfg = SimConfig(seed=args.seed, trials=args.trials, max_steps=args.max_steps,
                    burn_in=args.burn_in)
    if args.mode == "stationary":
        result = simulate_stationary(walk, cfg)
    else:
        if args.source is None or args.target is None:
            raise InvalidParamsError("hitting mode needs --source and --target")
        source, target = _node_index(g, args.source), _node_index(g, args.target)
        result = simulate_hitting(walk, source, target, cfg)
    payload = {
        "mode": result.mode,
        "walk": args.walk,
        "estimates": result.estimates,
        "standard_errors": result.standard_errors,
        "samples": result.samples,
        "truncated": result.truncated,
        "truncated_fraction": result.truncated_fraction,
        "rng": result.rng,
    }
    if result.mode == "hitting":
        payload["estimate_excluding_truncated"] = result.estimate_excluding_truncated
        payload["estimate_cap_bound"] = result.estimate_cap_bound
    return payload, digest, None


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


def _manifest(args, digest, elapsed):
    params = {k: v for k, v in sorted(vars(args).items()) if k not in ("output",)}
    return {
        "command": args.command,
        "params": params,
        "input_digest": digest,
        "seed": args.seed,
        "version": __version__,
        "timing_s": elapsed,
    }


def _write_output(args, payload, rows, manifest):
    if args.command == "generate":
        text = payload["edge_list"]
    elif args.format == "csv":
        header = "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"
        body = "\n".join(",".join(str(c) for c in row) for row in rows)
        text = header + body + "\n"
    else:
        payload = dict(payload)
        payload["manifest"] = manifest
        # Streamed: a full hitting matrix as one string costs several times its size.
        text = itertools.chain(_iterjson(payload), ("\n",))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines(text)
        except OSError as exc:
            raise InvalidParamsError(f"cannot write --output {args.output!r}: {exc.strerror}")
    else:
        sys.stdout.writelines(text)
        sys.stdout.flush()


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.format == "csv" and args.command in NO_TABLE:
            raise InvalidParamsError(f"{args.command} has no table to write as CSV")
        start = time.perf_counter()
        payload, digest, rows = COMMANDS[args.command](args)
        elapsed = time.perf_counter() - start
        _write_output(args, payload, rows, _manifest(args, digest, elapsed))
    except NbwalkError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout early (``nbwalk ... | head``).  Point stdout
        # at the null device so the interpreter's final flush stays quiet.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # a stdout without a file descriptor
        return EXIT_STDOUT_CLOSED
    return 0


if __name__ == "__main__":
    sys.exit(main())
