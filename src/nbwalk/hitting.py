"""Hitting times: one formula over the weighted-Laplacian pseudo-inverse for every walk, and its oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError
from .graph import reaches_all
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
    """Oracle: every T_ij from one solve of the fundamental matrix G = (I - P + 1uᵀ)⁻¹, u = 1/n.

    Since (I - P) G = I - 1πᵀ with πᵀ = uᵀG, column j of
    T_ij = (G_jj - G_ij) / π_j solves the absorbing system (I - P₋ⱼ) t = 1.
    """
    n = p.p.shape[0]
    src, dst = np.divmod(np.flatnonzero(p.p > 0), n)  # the arcs of P > 0, in row order
    back = np.argsort(dst, kind="stable")
    if not (reaches_all(n, src, dst) and reaches_all(n, dst[back], src[back])):
        raise InvalidParamsError("transition support not strongly connected: chain reducible")
    a = 1.0 / n - p.p
    a[np.diag_indices(n)] += 1.0
    t = np.linalg.solve(a, np.eye(n))  # G, turned into T in place below
    del a
    pi = t.mean(axis=0)
    t -= np.diag(t).copy()
    t /= -pi
    np.fill_diagonal(t, 0.0)
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
    """Hitting times of a reversible walk from the pseudo-inverse of its weighted Laplacian.

    The dense Laplacian L = diag(s) - W is scattered from the walk's arcs,
    which the walk checked to be connected where it was built.  The strengths
    ``s`` take the place of the degrees, and their sum the place of 2E.  The
    spectral sum L⁺ = Σ_k v_k v_kᵀ / σ_k over the nonzero Laplacian
    eigenpairs is evaluated in closed form, by one solve:
    L + c 11ᵀ is positive definite on a connected support, with c = Σs / N²
    (so its eigenvalue on 1, cN, is the mean strength), and its inverse is
    L⁺ + 11ᵀ / (cN²) = L⁺ + 11ᵀ / Σs.  With gram = Σs·L⁺ and alpha = L⁺ s,
    T_ij = alpha_i - alpha_j - gram_ij + gram_jj, the partial means are
    N/(N-1)·(gram_jj - alpha_j) and the global mean is trace(gram)/(N-1).
    """
    n = walk.s.shape[0]
    total = float(walk.s.sum())
    lap = walk.laplacian()
    lap += total / n**2
    gram = np.linalg.solve(lap, np.eye(n))  # (L + c 11ᵀ)⁻¹, turned into Σs·L⁺ in place below
    del lap
    gram -= 1.0 / total
    alpha = gram @ walk.s
    gram *= total
    gdiag = np.diag(gram).copy()
    t = gram
    t *= -1.0
    t += gdiag[None, :]
    t += alpha[:, None]
    t -= alpha[None, :]
    np.fill_diagonal(t, 0.0)
    t_partial = n / (n - 1.0) * (gdiag - alpha)
    t_global = float(gdiag.sum()) / (n - 1.0)
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
