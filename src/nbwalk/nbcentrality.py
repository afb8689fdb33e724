"""Non-backtracking matrix, its 2Nx2N reduction, and node centralities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailureError, InvalidParamsError, NotConnectedError, TreeGraphError
from .graph import dense_on_arcs, validate
from .spectral import TOL, lanczos_leading, leading_eig

# The explicit B takes (2E)^2 doubles, so verify_b_vs_m refuses larger graphs.
MAX_DIRECTED_EDGES = 400


@dataclass(frozen=True, eq=False)
class NbCentrality:
    """Leading eigenvalue kappa with outgoing (x) and incoming (y) centralities.

    Normalization: the stacked vector (x | x/kappa) has unit 2-norm.  The
    solver diagnostics say how the pair was obtained: ``path`` is "power"
    (power iteration on M), "dense" (the dense eigensolve fallback) or
    "unicyclic" (the closed form x = 1 for E == N); ``iterations`` counts
    power steps.  Kappa is always the quadratic-identity root of x.
    """

    kappa: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    residual: float = 0.0
    path: str = "power"
    iterations: int = 0


def build_nb_matrix(g):
    """The 2Ex2E non-backtracking matrix: entry (i->j, k->l) is 1 iff j == k and i != l.

    Rows and columns follow the arcs of ``g.arcs``.
    """
    if g.num_edges < 1:
        raise InvalidParamsError("graph has no edges")
    src, dst = g.arcs
    b = (dst[:, None] == src[None, :]) & (src[:, None] != dst[None, :])
    return b.astype(float)


def build_m_matrix(g):
    """2Nx2N block matrix [[A, I-D], [I, 0]] sharing B's real spectrum.

    A is scattered from the arcs into the top-left block, then the diagonals
    of I - D and I are set by index, so M is the only 2N×2N array made.
    """
    n = g.n
    m = dense_on_arcs(2 * n, *g.arcs, 1.0, "the reduced non-backtracking matrix M")
    i = np.arange(n)
    m[i, n + i] = 1.0 - g.degrees
    m[n + i, i] = 1.0
    return m


def _adj_matvec(g, v):
    """A v from the edge list, O(N + E) with no dense adjacency."""
    src, dst = g.arcs
    return np.bincount(src, weights=v[dst], minlength=g.n)


def eigenvector_centrality(g):
    """Leading adjacency eigenpair (lambda_1, psi_1) by Lanczos on ``v -> A v``.

    A :class:`LeadingEigenpair` with ``path="lanczos"``; no N×N array is
    formed.  Like the adjacency eigenvector of MERW, it checks no
    connectivity: ``cmd_centrality`` runs ``nb_centrality`` first.
    """
    return lanczos_leading(lambda v: _adj_matvec(g, v), size=g.n)


def _m_operator(g):
    """z -> M z for M = [[A, I-D], [I, 0]], without forming M."""
    n = g.n
    src, dst = g.arcs
    one_minus_d = 1.0 - g.degrees

    def apply(z):
        # A fresh array, as leading_eig needs: A z[:n] over the arcs (as in
        # _adj_matvec), then zeros up to 2N; each block is filled in place.
        out = np.bincount(src, weights=z[dst], minlength=2 * n)
        top = out[:n]
        top += one_minus_d * z[n:]
        out[n:] = z[:n]
        return out

    return apply


def _reduced_residual(g, kappa, x):
    """Max-norm residual of (A + (I - D)/kappa - kappa*I) x, scaled to unit x."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or kappa <= 0.0:
        return np.inf
    r = _adj_matvec(g, x) + (1.0 - g.degrees) * x / kappa - kappa * x
    return float(np.max(np.abs(r))) / nrm


def _kappa_of(g, x):
    """Kappa from a node vector x: the larger root of the quadratic identity.

    M's leading pair satisfies kappa^2 (x.x) - kappa (x.Ax) + x.(D - I)x = 0.
    S M is symmetric for S = diag(I, I - D), so S v is M's left vector, and
    the root is the fixed point of M's two-sided Rayleigh quotient: it is
    second-order accurate in the error of x.  When E == N, kappa = 1 is a
    double root (M is defective there, and eigensolvers lose half the digits
    on the eigenvalue itself); the discriminant is then pure noise, so the
    double root x.Ax / (2 x.x) is taken, which is exactly 1.0 at x = 1.
    """
    qa = float(x @ x)
    qb = float(x @ _adj_matvec(g, x))
    if g.num_edges == g.n:
        return qb / (2.0 * qa)
    qc = float(((g.degrees - 1.0) * x) @ x)
    return (qb + np.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))) / (2.0 * qa)


def nb_centrality(g):
    """Kappa and centralities via the leading eigenpair of the M matrix.

    Requires a connected non-tree graph; otherwise kappa would be zero and
    the transition construction downstream is undefined.  A connected
    non-tree graph has exactly one cycle iff E == N; then the eigen-equation
    at kappa = 1 reduces to (A - D) x = 0, whose kernel on a connected graph
    is the constant vector, so x = 1.  Otherwise x is the top block of the
    leading eigenpair of M from power iteration on the edge-list operator.
    Either way kappa is :func:`_kappa_of` x, and the pair is gated on the
    reduced eigen-equation.
    """
    flags = validate(g)
    if not flags.connected:
        raise NotConnectedError("graph is not connected")
    if flags.is_tree:
        raise TreeGraphError("graph is a tree; non-backtracking eigenvalue is zero")
    n = g.n
    if g.num_edges == n:
        x, path, iterations = np.ones(n), "unicyclic", 0
    else:
        pair = leading_eig(_m_operator(g), size=2 * n, dense=lambda: build_m_matrix(g))
        # leading_eig makes the largest entry positive, and for kappa > 1 it is
        # in the top block; wipe sign noise and clamp what is left below zero.
        x = pair.vector[:n]
        x = np.where(x < 1e-14 * x.max(), 0.0, x)
        path, iterations = pair.path, pair.iterations
    kappa = _kappa_of(g, x)
    residual = _reduced_residual(g, kappa, x)
    gate = 1e3 * TOL * max(1.0, kappa)
    if residual > gate:
        raise ConvergenceFailureError(
            f"reduced eigen-equation residual {residual:.3e} exceeds {gate:.1e}", residual=residual
        )
    # Unit norm of the stacked (x | x/kappa) vector.
    scale = np.sqrt(np.sum(x * x) * (1.0 + 1.0 / kappa**2))
    x = x / scale
    y = (g.degrees - 1.0) * x / kappa
    return NbCentrality(kappa=kappa, x=x, y=y, residual=residual, path=path, iterations=iterations)


def verify_b_vs_m(g):
    """Cross-check: leading eigenvalue of explicit B vs the M reduction.

    The M side is :func:`nb_centrality`, so trees, disconnected graphs and
    a failed residual gate are refused before B is built.  The explicit-B
    side is quadratic in 2E memory, so ``MAX_DIRECTED_EDGES`` caps it.
    """
    if 2 * g.num_edges > MAX_DIRECTED_EDGES:
        raise InvalidParamsError(
            f"2E = {2 * g.num_edges} exceeds cap {MAX_DIRECTED_EDGES} for explicit B"
        )
    kappa_m = nb_centrality(g).kappa
    b = build_nb_matrix(g)
    pair_b = leading_eig(b.__matmul__, size=b.shape[0], dense=lambda: b)
    # Summing the edge-vector over outgoing edges gives the node vector, so
    # both sides take kappa from the same quadratic identity.
    x_b = np.bincount(g.arcs[0], weights=pair_b.vector, minlength=g.n)
    kappa_b = _kappa_of(g, x_b)
    return {
        "kappa_b": kappa_b,
        "kappa_m": kappa_m,
        "max_gap": abs(kappa_b - kappa_m),
    }
