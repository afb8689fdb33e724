"""Per-job correctness checks for the nbwalk benchmark.

The gates are the acceptance tests' own:

* rose outputs against ``rose4_oracle`` at 1e-8 relative;
* ``spectral_vs_linear_max_gap`` <= 1e-7 (1 + max T);
* closed-form pi against the linear solve at 1e-9, detailed balance at 1e-10;
* ``verify_b_vs_m`` gap <= 1e-8, and kappa = 1 on unicyclic graphs;
* Monte Carlo against the exact values: every node's visit frequency and every
  trial mean is z-tested with its exact variance, at a Bonferroni level whose
  family-wise false-alarm rate for a fresh seed is 1 in 1000;
* every other output against reference values in ``reference.json``, recorded
  by ``record_reference.py`` on the same base instances (the summaries do not
  depend on node labels, so they hold for every seed), plus invariants
  (eigen-equation residuals computed here from the edge list, normalisation,
  stochastic identities, agreement between jobs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from nbwalk import WalkKind, hitting_spectral, rose4_oracle, stationary_closed, transition

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
MC_FALSE_ALARM = 1e-3
ROSE_RTOL = 1e-8
# Reference tolerances.  kappa is well conditioned; a relabelling moves the
# stationary summaries of the nearly defective chord graph by up to 7e-10;
# hitting times inherit the 1e-7 spectral-versus-linear gate.
REF_RTOL = {"kappa": 1e-9, "default": 1e-8, "t": 1e-7}
# Rose class pairs (source, target) for nodes hub 0, internal 1/2, peripheral 3.
ROSE_CLASS = {"I->H": (1, 0), "P->H": (3, 0), "H->I": (0, 1), "I->I": (2, 1),
              "P->I": (3, 1), "H->P": (0, 3), "I->P": (1, 3)}


@dataclass(frozen=True)
class GraphInfo:
    """Structure of one generated input, as the benchmark built it."""

    graph: object
    n: int
    u: np.ndarray
    v: np.ndarray
    degrees: np.ndarray
    digest: str
    base_digest: str
    perm: np.ndarray
    rose_m: int | None
    unicyclic: bool

    @staticmethod
    def of(spec, g, digest, base_digest, perm):
        edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
        degrees = np.bincount(edges.ravel(), minlength=g.n)
        return GraphInfo(g, g.n, edges[:, 0], edges[:, 1], degrees, digest,
                         base_digest, perm, spec.rose_m, spec.unicyclic)

    def adj_mul(self, x):
        """A x from the edge list, independent of the library's adjacency."""
        return (np.bincount(self.u, weights=x[self.v], minlength=self.n)
                + np.bincount(self.v, weights=x[self.u], minlength=self.n))

    @property
    def hub(self):
        return int(np.argmax(self.degrees))

    def rose_nodes(self):
        """Relabelled ids of the rose's hub, internal and peripheral base nodes 0..3."""
        return [int(i) for i in self.perm[:4]]


class Failures:
    def __init__(self):
        self.items = []

    def require(self, ok, what):
        if not ok:
            self.items.append(what)

    def close(self, what, value, ref, rtol):
        gap = abs(float(value) - float(ref)) / max(abs(float(ref)), 1e-300)
        self.require(gap <= rtol, f"{what}: {value!r} vs {ref!r} (rel gap {gap:.2e} > {rtol:g})")


def signature(job):
    return " ".join((job.command,) + tuple(job.args))


def summarize(command, payload):
    """Scalars recorded as reference values for one job's output.

    They do not depend on node labels, so one record serves every seed.
    Monte Carlo output has none: it is checked against exact values.
    """
    out = {}
    if command == "centrality":
        out = {"kappa": payload["kappa"], "x_sum": sum(payload["x"]), "x_max": max(payload["x"]),
               "evc_max": max(payload["eigenvector_centrality"])}
    elif command == "stationary":
        for rep in payload["reports"]:
            pi = rep["pi"]
            out[f"{rep['kind']}.ipr"] = rep["ipr"]
            out[f"{rep['kind']}.pi_max"] = max(pi)
            out[f"{rep['kind']}.pi_min"] = min(pi)
    elif command == "hitting":
        for rep in payload["reports"]:
            out[f"{rep['kind']}.t_global"] = rep["t_global"]
            out[f"{rep['kind']}.t_partial_max"] = max(rep["t_partial"])
            out[f"{rep['kind']}.t_partial_min"] = min(rep["t_partial"])
    elif command == "compare":
        for row in payload["rows"]:
            out[f"{row['kind']}.ipr"] = row["ipr"]
            out[f"{row['kind']}.t_global"] = row["t_global"]
    elif command == "verify_b_vs_m":
        out = {"kappa_m": payload["kappa_m"], "kappa_b": payload["kappa_b"]}
    return out


def _ref_rtol(key):
    leaf = key.rsplit(".", 1)[-1]
    if leaf.startswith("t_"):
        return REF_RTOL["t"]
    if leaf.startswith("kappa"):
        return REF_RTOL["kappa"]
    return REF_RTOL["default"]


def load_reference():
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def hitting_moments(kind, g, target):
    """Exact mean and variance of the hitting time of ``target`` from every node.

    With Q the transition matrix without ``target``, the moments solve
    (I - Q) m1 = 1 and (I - Q) m2 = 1 + 2 Q m1.
    """
    p = transition(kind, g).p
    keep = np.arange(g.n) != target
    q = p[np.ix_(keep, keep)]
    lhs = np.eye(g.n - 1) - q
    m1 = np.linalg.solve(lhs, np.ones(g.n - 1))
    m2 = np.linalg.solve(lhs, 1.0 + 2.0 * q @ m1)
    mean, var = np.zeros(g.n), np.zeros(g.n)
    mean[keep], var[keep] = m1, m2 - m1 * m1
    return mean, var


def occupation_variance(kind, g):
    """Stationary distribution and asymptotic variance of each node's visit frequency.

    For an ergodic chain, sqrt(T) (visits_i / T - pi_i) has variance
    pi_i (2 Z_ii - 1 - pi_i) with Z = (I - P + 1 pi^T)^-1 (Kemeny and Snell).
    """
    pi = stationary_closed(kind, g).pi
    p = transition(kind, g).p
    z = np.linalg.inv(np.eye(g.n) - p + np.outer(np.ones(g.n), pi))
    return pi, pi * (2.0 * np.diag(z) - 1.0 - pi)


def mc_tests(workload, infos):
    """Number of z-tests the workload's Monte Carlo jobs make (Bonferroni family)."""
    total = 0
    for job in workload.jobs:
        if job.command == "simulate":
            total += infos[job.graph].n if _arg(job, "--mode") == "stationary" else 1
    return max(total, 1)


def _arg(job, flag, default=None):
    args = list(job.args)
    return args[args.index(flag) + 1] if flag in args else default


class Checker:
    """Checks every job output of a workload; exact references are cached."""

    def __init__(self, workload, infos, reference):
        self.workload = workload
        self.infos = infos
        self.reference = reference
        # Two-sided Bonferroni limit over every z-test of the workload; the
        # variances are exact, so the z-scores are standard normal up to the
        # skew of the sample means.
        self.z_limit = NormalDist().inv_cdf(1.0 - MC_FALSE_ALARM / (2.0 * mc_tests(workload, infos)))
        self._exact = {}
        self.referenced = 0

    def check(self, job, payload, outputs):
        """Failure descriptions for one job; ``outputs`` maps job names of the pass."""
        info = self.infos[job.graph]
        f = Failures()
        getattr(self, "_" + job.command)(job, payload, info, f, outputs)
        record = self.reference.get(self.workload.name, {}).get(job.graph)
        ref = None
        if record is not None and record["base_sha256"] != info.base_digest:
            f.require(False, "base instance differs from the one the reference was recorded on")
        elif record is not None:
            ref = record["jobs"].get(signature(job))
        if ref is not None:
            self.referenced += 1
            got = summarize(job.command, payload)
            for key, value in ref.items():
                f.require(key in got, f"reference key {key} missing")
                if key in got:
                    f.close(f"reference {key}", got[key], value, _ref_rtol(key))
        return [f"{job.name}: {item}" for item in f.items]

    # -- per command ------------------------------------------------------

    def _centrality(self, job, p, info, f, outputs):
        kappa = p["kappa"]
        x = np.asarray(p["x"])
        y = np.asarray(p["y"])
        d = info.degrees
        f.require(p["degrees"] == d.tolist(), "degrees differ from the input")
        f.require(kappa > 0 and np.all(x >= 0), "kappa or x not positive")
        res = info.adj_mul(x) + (1.0 - d) * x / kappa - kappa * x
        f.require(np.max(np.abs(res)) / np.linalg.norm(x) <= 1e-8 * max(1.0, kappa),
                  "reduced eigen-equation residual")
        f.require(np.max(np.abs(kappa * y - (d - 1.0) * x)) <= 1e-12 * max(1.0, kappa),
                  "incoming centrality identity")
        f.close("stacked norm", np.sum(x * x) * (1.0 + 1.0 / kappa**2), 1.0, 1e-12)
        psi = np.asarray(p["eigenvector_centrality"])
        ap = info.adj_mul(psi)
        lam = float(psi @ ap)
        f.close("eigenvector norm", np.linalg.norm(psi), 1.0, 1e-12)
        f.require(np.all(psi > -1e-12), "eigenvector centrality sign")
        f.require(np.max(np.abs(ap - lam * psi)) <= 1e-8 * lam, "adjacency eigen residual")
        if info.rose_m is not None:
            o = rose4_oracle(info.rose_m)
            hub, internal, _, peripheral = info.rose_nodes()
            f.close("rose kappa", kappa, o.kappa1, ROSE_RTOL)
            for idx, ref in ((hub, o.x_hub), (internal, o.x_int), (peripheral, o.x_per)):
                f.close(f"rose x[{idx}]", x[idx], ref, ROSE_RTOL)
        if info.unicyclic:
            f.require(kappa == 1.0, "unicyclic kappa != 1")

    def _stationary(self, job, p, info, f, outputs):
        kinds = [r["kind"] for r in p["reports"]]
        walk = _arg(job, "--walk", "all")
        f.require(kinds == ([k.value for k in WalkKind] if walk == "all" else [walk]),
                  f"walk kinds {kinds}")
        for rep in p["reports"]:
            kind = rep["kind"]
            pi = np.asarray(rep["pi"])
            f.require(pi.shape == (info.n,) and np.all(pi >= 0), f"{kind} pi shape or sign")
            f.close(f"{kind} pi sum", pi.sum(), 1.0, 1e-12)
            f.close(f"{kind} ipr", rep["ipr"], float(pi @ pi), 1e-12)
            if kind == "turw" or info.unicyclic:
                # kappa = 1 makes the NB weights proportional to the degrees.
                f.require(np.max(np.abs(pi - info.degrees / info.degrees.sum())) <= 1e-14,
                          f"{kind} pi != d / 2E")
            if info.rose_m is not None:
                ref = rose4_oracle(info.rose_m).pi[WalkKind(kind)]
                hub, internal, _, peripheral = info.rose_nodes()
                for idx, value in zip((hub, internal, peripheral), ref):
                    f.close(f"rose {kind} pi[{idx}]", pi[idx], value, ROSE_RTOL)
            if "--check" in job.args:
                f.require(rep["check"]["closed_vs_linear_max_gap"] <= 1e-9,
                          f"{kind} closed vs linear pi gap")
                f.require(rep["check"]["detailed_balance_residual"] <= 1e-10,
                          f"{kind} detailed balance")

    def _hitting(self, job, p, info, f, outputs):
        both = _arg(job, "--method") == "both"
        for rep in p["reports"]:
            kind = rep["kind"]
            tp = np.asarray(rep["t_partial"])
            f.require(tp.shape == (info.n,) and np.all(tp > 0), f"{kind} t_partial")
            f.close(f"{kind} mean t_partial vs t_global", tp.mean(), rep["t_global"], 1e-8)
            f.require(rep["hub_node"] == info.hub, f"{kind} hub node")
            f.close(f"{kind} t_hub", rep["t_hub"], tp[info.hub], 1e-15)
            t = np.asarray(rep["t_matrix"]) if "t_matrix" in rep else None
            f.require(t is not None or info.n > 500, f"{kind} t_matrix missing")
            if t is not None:
                f.require(np.all(np.diag(t) == 0) and np.all(t >= 0), f"{kind} t diagonal/sign")
                col = t.sum(axis=0) / (info.n - 1)
                f.require(np.max(np.abs(col - tp)) <= 1e-8 * tp.max(), f"{kind} t columns")
            if both:
                bound = 1e-7 * (1.0 + float(t.max()))
                f.require(rep["spectral_vs_linear_max_gap"] <= bound,
                          f"{kind} spectral vs linear gap {rep['spectral_vs_linear_max_gap']:.3e}")
            if info.rose_m is not None:
                o = rose4_oracle(info.rose_m)
                wk = WalkKind(kind)
                nodes = info.rose_nodes()
                f.close(f"rose {kind} t_hub", tp[nodes[0]], o.t_hub[wk], ROSE_RTOL)
                f.close(f"rose {kind} t_global", rep["t_global"], o.t_global[wk], ROSE_RTOL)
                if t is not None:
                    for pair, (i, j) in ROSE_CLASS.items():
                        f.close(f"rose {kind} {pair}", t[nodes[i], nodes[j]],
                                o.t_class[wk][pair], ROSE_RTOL)

    def _compare(self, job, p, info, f, outputs):
        f.require(p["hub_node"] == info.hub, "hub node")
        rows = {r["kind"]: r for r in p["rows"]}
        f.require(sorted(rows) == sorted(k.value for k in WalkKind), "walk kinds")
        stat = outputs.get(f"{job.graph}/stationary")
        hit = outputs.get(f"{job.graph}/hitting")
        for kind, row in rows.items():
            f.require(row["n"] == info.n, f"{kind} n")
            if stat is not None:
                rep = next(r for r in stat["reports"] if r["kind"] == kind)
                f.close(f"{kind} ipr vs stationary job", row["ipr"], rep["ipr"], 1e-12)
                f.close(f"{kind} pi_hub vs stationary job", row["pi_hub"],
                        rep["pi"][info.hub], 1e-12)
            if hit is not None:
                rep = next(r for r in hit["reports"] if r["kind"] == kind)
                f.close(f"{kind} t_global vs hitting job", row["t_global"], rep["t_global"], 1e-12)
                f.close(f"{kind} t_hub vs hitting job", row["t_hub"], rep["t_hub"], 1e-12)
            if info.rose_m is not None:
                o = rose4_oracle(info.rose_m)
                wk = WalkKind(kind)
                f.close(f"rose {kind} pi_hub", row["pi_hub"], o.pi[wk][0], ROSE_RTOL)
                f.close(f"rose {kind} t_hub", row["t_hub"], o.t_hub[wk], ROSE_RTOL)
                f.close(f"rose {kind} t_global", row["t_global"], o.t_global[wk], ROSE_RTOL)

    def _simulate(self, job, p, info, f, outputs):
        kind = _arg(job, "--walk")
        est = np.asarray(p["estimates"])
        f.require(p["truncated"] == 0, "truncated trials")
        if _arg(job, "--mode") == "hitting":
            trials = int(_arg(job, "--trials"))
            source, target = int(_arg(job, "--source")), int(_arg(job, "--target"))
            mean, var = self._exact_value(("t", kind, job.graph, target),
                                          lambda: hitting_moments(kind, info.graph, target))
            f.close("exact first moment vs spectral hitting time", mean[source],
                    self._exact_value(("t", kind, job.graph),
                                      lambda: hitting_spectral(kind, info.graph).t)[source, target],
                    1e-8)
            f.require(p["samples"] == trials, "hitting samples")
            z = abs(est[0] - mean[source]) / np.sqrt(var[source] / trials)
        else:
            pi, sigma2 = self._exact_value(("pi", kind, job.graph),
                                           lambda: occupation_variance(kind, info.graph))
            z = np.max(np.abs(est - pi) / np.sqrt(sigma2 / p["samples"]))
        f.require(z <= self.z_limit, f"Monte Carlo max |z| {float(z):.2f} > {self.z_limit:.2f}")

    def _verify_b_vs_m(self, job, p, info, f, outputs):
        f.require(p["max_gap"] <= 1e-8, f"B vs M gap {p['max_gap']:.3e}")
        if info.unicyclic:
            f.require(p["kappa_m"] == 1.0, "unicyclic kappa_m != 1")
            f.require(abs(p["kappa_b"] - 1.0) <= 1e-8, "unicyclic kappa_b != 1")

    def _exact_value(self, key, compute):
        if key not in self._exact:
            self._exact[key] = compute()
        return self._exact[key]


def mc_steps(job, payload):
    """Walker steps one simulate job made, from its output."""
    if payload["mode"] == "hitting":
        # Truncated trials walked the full cap, which estimate_cap_bound counts.
        return int(round(payload["estimate_cap_bound"] * int(_arg(job, "--trials"))))
    return int(_arg(job, "--burn-in", 1000)) + int(payload["samples"])
