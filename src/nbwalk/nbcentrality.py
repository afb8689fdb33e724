"""Non-backtracking matrix, its 2Nx2N reduction, and node centralities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailureError, InvalidParamsError, NotConnectedError, TreeGraphError
from .graph import validate
from .spectral import TOL, leading_eig

# The explicit B takes (2E)^2 doubles, so verify_b_vs_m refuses larger graphs.
MAX_DIRECTED_EDGES = 400


@dataclass(frozen=True, eq=False)
class NbCentrality:
    """Leading eigenvalue kappa with outgoing (x) and incoming (y) centralities.

    Normalization: the stacked vector (x | x/kappa) has unit 2-norm.  The
    solver diagnostics say how the pair was obtained: ``path`` is "power"
    (power iteration on M), "dense" (the dense eigensolve fallback) or
    "unicyclic" (the closed form for E == N); ``iterations`` counts power
    steps; ``polished`` is whether the quadratic-identity root replaced kappa.
    """

    kappa: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    residual: float = 0.0
    path: str = "power"
    iterations: int = 0
    polished: bool = False


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
    """2Nx2N block matrix [[A, I-D], [I, 0]] sharing B's real spectrum."""
    a = g.adjacency
    n = g.n
    eye = np.eye(n)
    top = np.hstack([a, eye - np.diag(g.degrees.astype(float))])
    bottom = np.hstack([eye, np.zeros((n, n))])
    return np.vstack([top, bottom])


def _adj_matvec(g, v):
    """A v from the edge list, O(N + E) with no dense adjacency."""
    src, dst = g.arcs
    return np.bincount(src, weights=v[dst], minlength=g.n)


def _m_operator(g):
    """z -> M z for M = [[A, I-D], [I, 0]], without forming M."""
    n = g.n
    one_minus_d = 1.0 - g.degrees

    def apply(z):
        top, bottom = z[:n], z[n:]
        return np.concatenate([_adj_matvec(g, top) + one_minus_d * bottom, top])

    return apply


def _reduced_residual(g, kappa, x):
    """Max-norm residual of (A + (I - D)/kappa - kappa*I) x, scaled to unit x."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or kappa <= 0.0:
        return np.inf
    r = _adj_matvec(g, x) + (1.0 - g.degrees) * x / kappa - kappa * x
    return float(np.max(np.abs(r))) / nrm


def _polish_kappa(g, x, kappa0):
    """Refine kappa from an accurate vector via the exact quadratic identity.

    The true pair satisfies kappa^2 (x.x) - kappa (x.Ax) + x.(D - I)x = 0, so
    the larger root is second-order accurate in the vector error.  That matters
    when the dominant eigenvalue is defective (cycles and other graphs whose
    2-core is a single cycle), where eigensolvers lose half the available
    digits on the eigenvalue itself.  Returns (kappa, whether the root was taken).
    """
    qa = float(x @ x)
    if qa <= 0.0:
        return kappa0, False
    qb = float(x @ _adj_matvec(g, x))
    qc = float(((g.degrees - 1.0) * x) @ x)
    disc = max(qb * qb - 4.0 * qa * qc, 0.0)
    root = (qb + np.sqrt(disc)) / (2.0 * qa)
    if root <= 0.0:
        return kappa0, False
    # Near a defective (double) root the residual is flat in kappa, so it
    # cannot arbitrate; take the quadratic root unless it is clearly worse.
    if _reduced_residual(g, root, x) > 2.0 * _reduced_residual(g, kappa0, x) + 1e-15:
        return kappa0, False
    return root, True


def _stacked_gap(kappa, z, n):
    """How far z is from the (x | x/kappa) block structure of a true M pair."""
    if kappa <= 0.0:
        return np.inf
    return float(np.max(np.abs(kappa * z[n:] - z[:n])))


def _leading_m_pair(g):
    """Leading eigenpair of M, by power iteration on the edge-list operator.

    A true pair has z_bottom = z_top / kappa; the power residual bounds that
    gap (Mz - kappa z has bottom block z_top - kappa z_bottom), so a pair
    breaking it is a convergence failure.  Returns (kappa, z, path, iterations).

    The shift is 1.  M's eigenvalues are eigenvalues of B (Ihara-Bass; B adds
    only +-1), so every one has |lambda| <= kappa, and |lambda + 1| <
    kappa + 1 for every lambda other than kappa itself: the target is strictly
    dominant whenever kappa > 1.  (kappa = 1 is the unicyclic case, solved in
    closed form before this.)  A shift s contracts the iteration by
    max |lambda + s| / (kappa + s) over the other eigenvalues; for those near
    the unit circle or inside |lambda| <= sqrt(kappa), where most of them lie
    on sparse graphs, that ratio grows with s, so the smallest safe shift is used.
    """
    n = g.n
    pair = leading_eig(_m_operator(g), size=2 * n, shift=1.0, dense=lambda: build_m_matrix(g))
    kappa, z = pair.value, pair.vector
    if kappa <= 1e-9 or _stacked_gap(kappa, z, n) > 1e-4:
        raise ConvergenceFailureError(
            "leading eigenpair violates the stacked-vector structure",
            residual=_stacked_gap(kappa, z, n),
        )
    return kappa, z, pair.path, pair.iterations


def _clean_nonnegative(x):
    """Orient a Perron-like vector positively and wipe sign noise."""
    if np.sum(x) < 0:
        x = -x
    mx = float(np.max(np.abs(x)))
    if mx == 0.0:
        raise ConvergenceFailureError("centrality vector is identically zero")
    x = x.copy()
    x[np.abs(x) < 1e-14 * mx] = 0.0
    return np.maximum(x, 0.0)


def _leading_node_pair(g):
    """Kappa and cleaned node vector from M, robust to defective spectra.

    A connected non-tree graph has exactly one cycle iff E == N, and then the
    dominant eigenvalue is kappa = 1 with a defective M -- the one regime
    where iterative and dense eigensolvers alike lose half the available
    digits, because the vector can absorb the eigenvalue error while keeping
    the residual small.  In that case the eigen-equation at kappa = 1 reduces
    to (A - D) x = 0, whose kernel on a connected graph is the constant
    vector, so the exact pair is available in closed form.

    Returns (kappa, x, residual, solver diagnostics for :class:`NbCentrality`).
    """
    n = g.n
    if g.num_edges == n:
        x = np.full(n, 1.0 / np.sqrt(n))
        solver = {"path": "unicyclic", "iterations": 0, "polished": False}
        return 1.0, x, _reduced_residual(g, 1.0, x), solver
    kappa, z, path, iterations = _leading_m_pair(g)
    x = _clean_nonnegative(z[:n])
    kappa, polished = _polish_kappa(g, x, kappa)
    solver = {"path": path, "iterations": iterations, "polished": polished}
    return kappa, x, _reduced_residual(g, kappa, x), solver


def nb_centrality(g):
    """Kappa and centralities via the leading eigenpair of the M matrix.

    Requires a connected non-tree graph; otherwise kappa would be zero and
    the transition construction downstream is undefined.
    """
    flags = validate(g)
    if not flags.connected:
        raise NotConnectedError("graph is not connected")
    if flags.is_tree:
        raise TreeGraphError("graph is a tree; non-backtracking eigenvalue is zero")
    kappa, x, residual, solver = _leading_node_pair(g)
    gate = 1e3 * TOL * max(1.0, kappa)
    if residual > gate:
        raise ConvergenceFailureError(
            f"reduced eigen-equation residual {residual:.3e} exceeds {gate:.1e}", residual=residual
        )
    # Unit norm of the stacked (x | x/kappa) vector.
    scale = np.sqrt(np.sum(x * x) * (1.0 + 1.0 / kappa**2))
    x = x / scale
    y = (g.degrees - 1.0) * x / kappa
    return NbCentrality(kappa=kappa, x=x, y=y, residual=residual, **solver)


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
    pair_b = leading_eig(b.__matmul__, size=b.shape[0], shift=1.0, dense=lambda: b)
    # Summing the edge-vector over outgoing edges gives the node vector, so
    # both sides can be polished through the same quadratic identity.
    x_b = np.bincount(g.arcs[0], weights=pair_b.vector, minlength=g.n)
    if g.num_edges == g.n:
        # Unicyclic graphs make the eigenvalue a double root of the quadratic
        # identity; the discriminant is then pure noise and the sqrt term in
        # the generic polish amplifies it, so use the noise-free double root.
        kappa_b = float(x_b @ _adj_matvec(g, x_b)) / (2.0 * float(x_b @ x_b))
    else:
        kappa_b, _ = _polish_kappa(g, x_b, pair_b.value)
    return {
        "kappa_b": kappa_b,
        "kappa_m": kappa_m,
        "max_gap": abs(kappa_b - kappa_m),
    }
