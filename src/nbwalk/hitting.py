"""Hitting times: one weighted-Laplacian formula for every walk, and its oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, NotConnectedError
from .nbcentrality import nb_centrality  # noqa: F401  -- benchmarks/tests/test_tracer.py expects it
from .spectral import sym_eig
from .walks import WalkKind, adjacency_leading_eigvec, reversible_walk, transition


@dataclass(frozen=True, eq=False)
class HittingReport:
    """Pairwise hitting times plus partial and global means.

    ``t_partial`` and ``t_global`` are evaluated from their own formulas, not
    aggregated from ``t``; agreement between the two routes is a correctness
    check, not a construction.
    """

    kind: WalkKind
    t: np.ndarray = field(repr=False)
    t_partial: np.ndarray = field(repr=False)
    t_global: float = 0.0
    method: str = "spectral"


def hitting_linear(p):
    """Oracle: per-target absorbing solves (I - P_minus_j) t = 1."""
    mat = p.p
    n = mat.shape[0]
    t = np.zeros((n, n))
    eye = np.eye(n - 1)
    idx_all = np.arange(n)
    for j in range(n):
        keep = idx_all != j
        sub = mat[np.ix_(keep, keep)]
        try:
            col = np.linalg.solve(eye - sub, np.ones(n - 1))
        except np.linalg.LinAlgError:
            raise InvalidParamsError(f"singular absorbing system for target {j}: chain reducible")
        t[keep, j] = col
    t_partial = t.sum(axis=0) / (n - 1)
    t_global = float(t_partial.mean())
    return HittingReport(kind=p.kind, t=t, t_partial=t_partial, t_global=t_global, method="linear_solve")


def hitting_merw_adjacency(g):
    """Oracle: maximal-entropy-walk hitting times from the adjacency spectrum."""
    lam1, psi1 = adjacency_leading_eigvec(g)
    dec = sym_eig(g.adjacency)
    n = g.n
    lams = dec.eigenvalues[:-1]
    psis = dec.eigenvectors[:, :-1]
    rk = lam1 / (lam1 - lams)
    hk = (psis / psi1[:, None]).sum(axis=0)
    gram = (psis * rk[None, :]) @ psis.T
    gdiag = np.diag(gram)
    beta = psis @ (rk * hk)
    ratio = psi1[None, :] / psi1[:, None]
    t = (gdiag[None, :] - gram * ratio) / (psi1**2)[None, :]
    np.fill_diagonal(t, 0.0)
    t_partial = (n * gdiag - psi1 * beta) / (psi1**2 * (n - 1.0))
    t_global = float(t_partial.mean())
    return HittingReport(kind=WalkKind.MERW, t=t, t_partial=t_partial, t_global=t_global, method="spectral")


def walk_hitting(walk):
    """Hitting times of a reversible walk from the spectrum of its weighted Laplacian.

    Consumes ``walk.w``, over which the Laplacian is built.  The strengths
    ``s`` take the place of the degrees, and their sum the place of 2E.
    """
    dec = sym_eig(walk.laplacian())
    evals, evecs = dec.eigenvalues, dec.eigenvectors
    n = evecs.shape[0]
    sigma = evals[1:]
    if np.any(sigma <= 0):
        raise NotConnectedError("Laplacian has repeated zero eigenvalue: graph disconnected")
    v = evecs[:, 1:]
    total = float(walk.s.sum())
    gk = walk.s @ v
    ck = gk / sigma
    ek = total / sigma
    alpha = v @ ck
    gram = (v * ek[None, :]) @ v.T
    gdiag = np.diag(gram)
    t = alpha[:, None] - alpha[None, :] - gram + gdiag[None, :]
    np.fill_diagonal(t, 0.0)
    t_partial = n / (n - 1.0) * (gdiag - alpha)
    t_global = total / (n - 1.0) * float(np.sum(1.0 / sigma))
    return HittingReport(kind=walk.kind, t=t, t_partial=t_partial, t_global=t_global)


def hitting_spectral(kind, g):
    """Pairwise, partial and global mean hitting times of any walk kind."""
    return walk_hitting(reversible_walk(kind, g))


def hub_node(g):
    """Max-degree node; ties resolve to the smallest label."""
    return int(np.argmax(g.degrees))


def hub_report(g, kind):
    """Partial mean hitting time at the max-degree node."""
    report = hitting_spectral(kind, g)
    hub = hub_node(g)
    return {"hub_node": hub, "t_hub": float(report.t_partial[hub])}


def eq26_audit(g):
    """Document the pairwise-formula prefactor discrepancy on a concrete graph.

    Returns both evaluations of the pairwise hitting-time formula (with and
    without the printed 1/2), the partial/global values, and the linear-solve
    oracle, so the disagreement of the verbatim form is visible in one report.
    """
    consistent = hitting_spectral(WalkKind.NBCRW, g)
    t_verbatim = 0.5 * consistent.t
    linear = hitting_linear(transition(WalkKind.NBCRW, g))
    gap_consistent = float(np.max(np.abs(consistent.t - linear.t)))
    gap_verbatim = float(np.max(np.abs(t_verbatim - linear.t)))
    return {
        "t_consistent": consistent.t,
        "t_verbatim": t_verbatim,
        "t_linear": linear.t,
        "t_partial": consistent.t_partial,
        "t_global": consistent.t_global,
        "max_gap_consistent_vs_linear": gap_consistent,
        "max_gap_verbatim_vs_linear": gap_verbatim,
        "note": (
            "pairwise formula printed with a 1/2 prefactor disagrees with the "
            "partial/global formulas and the absorbing-system oracle; the "
            "prefactor-free variant is the consistent one"
        ),
    }
