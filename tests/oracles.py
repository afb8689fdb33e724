"""The paper's formulas, the per-target absorbing solves and the ER generator, as test oracles.

None of these is a production path: the library computes every walk from one
reversible-walk kernel, and the tests hold it to these independent routes.
"""

from __future__ import annotations

import numpy as np

from nbwalk import (
    Graph, HittingReport, NotConnectedError, StationaryDistribution, WalkKind, ZeroDenominatorError,
    nb_centrality, sym_eig, validate,
)
from nbwalk.spectral import _sign_fix


def gen_er_reference(n, p, seed):
    """Erdos-Renyi G(n, p) from one uniform per pair of ``np.triu_indices(n, 1)``, drawn at once.

    ``gen_er`` draws the same stream row by row; this keeps the O(n²) index
    arrays as the reference for its edge sets.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return Graph.from_edges(n, list(zip(iu[mask].tolist(), ju[mask].tolist())))


def laplacian(g):
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def stationary_nbcrw_formula(g):
    """The paper's NBCRW closed form pi ∝ ((kappa^2 - 1)/kappa + d/kappa) x^2.

    It agrees with s / sum(s) up to the residual of the centrality eigenpair.
    """
    nc = nb_centrality(g)
    kappa = nc.kappa
    weights = ((kappa**2 - 1.0) / kappa + g.degrees / kappa) * nc.x**2
    q = weights.sum()
    if q <= 0:
        raise ZeroDenominatorError(-1, "degenerate stationary normalization")
    return StationaryDistribution(kind=WalkKind.NBCRW, pi=weights / q, method="closed_form")


def hitting_merw_adjacency(g):
    """Maximal-entropy-walk hitting times from the adjacency spectrum."""
    if not validate(g).connected:
        raise NotConnectedError("graph is not connected")
    evals, evecs = sym_eig(g.adjacency)
    lam1, psi1 = float(evals[-1]), _sign_fix(evecs[:, -1])
    n = g.n
    lams = evals[:-1]
    psis = evecs[:, :-1]
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


def absorbing_hitting(p):
    """Reference hitting times: one absorbing solve (I - P_minus_j) t = 1 per target j."""
    mat = p.p
    n = mat.shape[0]
    t = np.zeros((n, n))
    eye = np.eye(n - 1)
    for j in range(n):
        keep = np.arange(n) != j
        t[keep, j] = np.linalg.solve(eye - mat[np.ix_(keep, keep)], np.ones(n - 1))
    return t


def eigen_hitting(walk):
    """Reference hitting times from the eigendecomposition of the weighted Laplacian.

    The paper's eigen-expansion, term by term over the nonzero eigenpairs
    (σ_k, v_k) of L = diag(s) - w, with s in place of the degrees.
    """
    evals, evecs = sym_eig(walk.laplacian())
    n = evecs.shape[0]
    sigma = evals[1:]
    if np.any(sigma <= 0):
        raise NotConnectedError("Laplacian has repeated zero eigenvalue: graph disconnected")
    v = evecs[:, 1:]
    total = float(walk.s.sum())
    ck = (walk.s @ v) / sigma
    ek = total / sigma
    alpha = v @ ck
    gram = (v * ek[None, :]) @ v.T
    gdiag = np.diag(gram)
    t = alpha[:, None] - alpha[None, :] - gram + gdiag[None, :]
    np.fill_diagonal(t, 0.0)
    t_partial = n / (n - 1.0) * (gdiag - alpha)
    t_global = total / (n - 1.0) * float(np.sum(1.0 / sigma))
    return HittingReport(kind=walk.kind, t=t, t_partial=t_partial, t_global=t_global)
