"""Non-backtracking matrix, its 2Nx2N reduction, its kernel contraction, and node centralities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailureError, InvalidParamsError, NotConnectedError, TreeGraphError
from .graph import dense_on_arcs, validate
from .spectral import TOL, LeadingEigenpair, _rayleigh, lanczos_leading, leading_eig

# The explicit B takes (2E)^2 doubles, so verify_b_vs_m refuses larger graphs.
MAX_DIRECTED_EDGES = 400


@dataclass(frozen=True, eq=False)
class NbCentrality:
    """Leading eigenvalue kappa with outgoing (x) and incoming (y) centralities.

    Normalization: the stacked vector (x | x/kappa) has unit 2-norm.  The
    solver diagnostics say how the pair was obtained: ``path`` is "power"
    (power iteration on M), "kernel" (Newton's method on the contracted
    kernel, where 2 E_k <= N; chain entries of x are then exact), "dense"
    (a dense eigensolve fallback on either route) or "unicyclic" (the closed
    form x = 1 for E == N); ``iterations`` counts power steps, on M or,
    summed over the Newton steps, on the kernel.  Kappa is taken where it is
    known: 1 on the unicyclic path, the Newton root z on the kernel route,
    and the quadratic-identity root of x on the power route.  On every path
    a node outside the 2-core has x_parent / kappa.
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
    of I - D and I are set by index, so M is the only 2N×2N array made.  No
    solver reads it: the power route iterates :func:`_m_operator`, and its
    dense fallback forms M from that operator's columns.  It is kept as the
    tests' independent reference for :func:`_m_operator`, and because the
    benchmark tracer binds it by name.
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
    """Leading adjacency eigenpair (lambda_1, psi_1) by Lanczos on ``v -> A v``, exact on trees.

    A :class:`LeadingEigenpair` with ``path="lanczos"``; no N×N array is
    formed.  Lanczos is accurate in absolute terms only, so deep in a pendant
    tree its entries are noise of either sign.  On a connected graph every
    peeled node c of ``g.reduction`` has psi_c = r_c psi_parent, where
    lambda psi_c = psi_parent + sum of psi over c's children gives
    r_c = 1 / (lambda - sum of the children's r), taken from the leaves
    inward.  Where lambda r_c <= 2 the denominator is at least lambda / 2,
    so it cancels no digits and amplifies no error of the children's r;
    such a node, when all its children are such nodes, takes
    r_c psi_parent, outward from the 2-core.  Every other node keeps its
    Lanczos entry: its subtree holds psi's mass, where Lanczos is accurate.
    The vector is renormalised and reported with its Rayleigh quotient and
    residual.  Like the adjacency eigenvector of MERW, it checks no
    connectivity: ``cmd_centrality`` runs ``nb_centrality`` first.
    """
    def apply(v):
        return _adj_matvec(g, v)

    pair = lanczos_leading(apply, size=g.n)
    red = g.reduction
    if not red.peeled.size or not g.connected:
        return pair
    lam, psi = pair.value, pair.vector.copy()
    ratio, below, exact = np.ones(g.n), np.zeros(g.n), np.ones(g.n, dtype=bool)
    rounds = red.levels()
    for nodes, parents in rounds:
        margin = lam - below[nodes]
        exact[nodes] &= margin >= 0.5 * lam
        ratio[nodes] = 1.0 / np.where(exact[nodes], margin, 1.0)
        np.add.at(below, parents, ratio[nodes])
        exact[parents[~exact[nodes]]] = False
    for nodes, parents in reversed(rounds):
        psi[nodes] = np.where(exact[nodes], ratio[nodes] * psi[parents], psi[nodes])
    psi /= np.linalg.norm(psi)
    value, residual = _rayleigh(apply, psi)
    return LeadingEigenpair(value=value, vector=psi, residual=residual,
                            iterations=pair.iterations, path=pair.path)


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
    double root x.Ax / (2 x.x) is taken; ``nb_centrality`` sets kappa = 1
    there itself, so that branch serves ``verify_b_vs_m``'s explicit-B side.
    """
    qa = float(x @ x)
    qb = float(x @ _adj_matvec(g, x))
    if g.num_edges == g.n:
        return qb / (2.0 * qa)
    qc = float(((g.degrees - 1.0) * x) @ x)
    return (qb + np.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))) / (2.0 * qa)


# Newton steps on log rho(B~(e^t)) = 0 before the kernel route gives up to the residual gate.
MAX_NEWTON = 64


def _kernel_operator(k, t):
    """The arc weights e^(-t l) and ``V -> B~(e^t) V`` on the kernel arcs.

    (B~(z) V)_e = sum of z^-l_f V_f over the kernel arcs f out of e's head,
    less the term of f = reverse(e): one ``np.bincount`` over the kernel arcs.
    """
    weights = np.exp(-t * k.length)

    def apply(v):
        wv = weights * v
        return np.bincount(k.tail, weights=wv, minlength=k.branch.size)[k.head] - wv[k.reverse]

    return weights, apply


def _kernel_solve(g):
    """x on the 2-core, kappa, path and power steps from the kernel: rho(B~(kappa)) = 1.

    B~(z) is the kernel's non-backtracking matrix with each arc f weighted
    z^-l_f, and V its Perron vector, the value of the B eigenvector on each
    chain's last arc.  log rho(B~(e^t)) is convex and decreasing in t
    (Kingman 1961), so Newton's method from t = 0 climbs to the root without
    overshooting it.  Its slope is -sum(l u V) / sum(u V) for the left
    Perron vector u_e = z^-l_e V_reverse(e), and rho is the two-sided
    Rayleigh quotient u B~ V / u V, second-order in the error of V.  Kappa
    is the last Newton iterate z = e^t itself, which no cancellation touches
    as kappa -> 1.  The certified V then takes 8 more steps on B~ + I, each
    of which shrinks its other components as leading_eig's own steps do.
    The arc j steps before a chain's end takes z^-j V of that chain, so
    nothing overflows; x sums each node's out-arcs on the 2-core and is 0 on
    the peeled nodes, which ``nb_centrality`` sets.
    """
    k = g.kernel
    t, path, steps = 0.0, "kernel", 0
    for _ in range(MAX_NEWTON):
        weights, apply = _kernel_operator(k, t)
        pair = leading_eig(apply, size=k.tail.size)
        steps += pair.iterations
        if pair.path == "dense":
            path = "dense"
        v = pair.vector
        u = weights * v[k.reverse]
        uv = float(u @ v)
        log_rho = math.log(float(u @ apply(v)) / uv)
        step = log_rho * uv / float(u @ (k.length * v))
        t += step
        if step <= 2.0**-50 * t:  # below rounding, or back from a rounding overshoot: done
            break
    for _ in range(8):
        v = apply(v) + v
        v /= math.sqrt(v @ v)
    steps += 8
    src = g.arcs[0][k.core_arcs]
    x = np.bincount(src, weights=np.exp(-t * k.to_end) * v[k.on], minlength=g.n)
    return x, math.exp(t), path, steps


def nb_centrality(g):
    """Kappa and centralities via the leading eigenpair of the M matrix or of the kernel.

    Requires a connected non-tree graph; otherwise kappa would be zero and
    the transition construction downstream is undefined.  A connected
    non-tree graph has exactly one cycle iff E == N; then the eigen-equation
    at kappa = 1 reduces to (A - D) x = 0, whose kernel on a connected graph
    is the constant vector, so x = 1.  Where the kernel has at most N arcs
    (2 E_k <= N), x comes exactly from the kernel's Perron vector
    (:func:`_kernel_solve`).  Otherwise x is the top block of the leading
    eigenpair of M from power iteration on the edge-list operator.  Kappa
    comes from the route: exactly 1 on the unicyclic one, the Newton root on
    the kernel route and :func:`_kappa_of` x on the power route.  Either
    solver route leaves the pendant trees to one closed form: at a peeled
    node c the children's terms of (A + (I - D)/kappa) x cancel the
    (1 - d_c) x_c / kappa term, so x_c = x_parent / kappa, set outward from
    the 2-core.  Every pair is gated on the reduced eigen-equation.
    """
    flags = validate(g)
    if not flags.connected:
        raise NotConnectedError("graph is not connected")
    if flags.is_tree:
        raise TreeGraphError("graph is a tree; non-backtracking eigenvalue is zero")
    n = g.n
    if g.num_edges == n:
        x, kappa, path, iterations = np.ones(n), 1.0, "unicyclic", 0
    elif 2 * g.reduction.kernel_edges <= n:
        x, kappa, path, iterations = _kernel_solve(g)
    else:
        pair = leading_eig(_m_operator(g), size=2 * n)
        # leading_eig makes the largest entry positive, and for kappa > 1 it is
        # in the top block.  Entries below 1e-14 of it are sign noise, as on a
        # long core chain far from the mass: wipe them and clamp what is left
        # below zero.  Peeled nodes are set below, so the wipe acts on the 2-core.
        x = pair.vector[:n]
        x = np.where(x < 1e-14 * x.max(), 0.0, x)
        kappa, path, iterations = _kappa_of(g, x), pair.path, pair.iterations
    if path != "unicyclic":
        for nodes, parents in reversed(g.reduction.levels()):
            x[nodes] = x[parents] / kappa
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
    """Cross-check: leading eigenvalue of explicit B vs that of :func:`nb_centrality`.

    The ``kappa_m`` side is :func:`nb_centrality`, on M or on the kernel, so
    trees, disconnected graphs and a failed residual gate are refused before
    B is built.  The explicit-B
    side is quadratic in 2E memory, so ``MAX_DIRECTED_EDGES`` caps it.
    """
    if 2 * g.num_edges > MAX_DIRECTED_EDGES:
        raise InvalidParamsError(
            f"2E = {2 * g.num_edges} exceeds cap {MAX_DIRECTED_EDGES} for explicit B"
        )
    kappa_m = nb_centrality(g).kappa
    b = build_nb_matrix(g)
    pair_b = leading_eig(b.__matmul__, size=b.shape[0])
    # Summing the edge-vector over outgoing edges gives the node vector, so
    # both sides take kappa from the same quadratic identity.
    x_b = np.bincount(g.arcs[0], weights=pair_b.vector, minlength=g.n)
    kappa_b = _kappa_of(g, x_b)
    return {
        "kappa_b": kappa_b,
        "kappa_m": kappa_m,
        "max_gap": abs(kappa_b - kappa_m),
    }
