"""Transition matrices, stationary distributions, and the IPR metric.

Every walk is the reversible walk on W = A∘xxᵀ for a node potential x: x = 1
(TURW), the leading adjacency eigenvector (MERW) or the NB centrality (NBCRW).
W is held on the graph's 2E arcs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedError, InvalidParamsError, NotConnectedError, ZeroDenominatorError,
)
from .graph import check_dense, reaches_all
from .nbcentrality import nb_centrality
from .spectral import _sign_fix, sym_eig


class WalkKind(str, enum.Enum):
    TURW = "turw"
    MERW = "merw"
    NBCRW = "nbcrw"


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    kind: WalkKind
    p: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    kind: WalkKind
    pi: np.ndarray = field(repr=False)
    method: str = "closed_form"


class ReversibleWalk:
    """The walk on W = A∘xxᵀ for a nonnegative node potential ``x``, held on the arcs of ``g``.

    ``w[k] = x[src[k]] x[dst[k]]`` over the 2E arcs (src, dst) = ``g.arcs``,
    and the strengths are s = W 1.  No N×N array is kept: ``transition`` and
    ``laplacian`` each scatter ``w`` onto a fresh dense matrix, refused above
    ``graph.MAX_DENSE_NODES`` nodes.  A disconnected
    graph is refused first, then a zero strength; every s_i > 0 needs every
    x_i > 0, so the support of W is then the connected graph itself.
    """

    def __init__(self, kind, g, x):
        self.kind = WalkKind(kind)
        self.src, self.dst = g.arcs
        if not reaches_all(g.n, self.src, self.dst):
            raise NotConnectedError("graph is not connected")
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise InvalidParamsError("negative potential entry")
        self.w = x[self.src] * x[self.dst]
        self.s = np.bincount(self.src, weights=self.w, minlength=g.n)
        bad = np.flatnonzero(self.s <= 0.0)
        if bad.size:
            raise ZeroDenominatorError(int(bad[0]))

    def _dense(self, values):
        """The N×N matrix with ``values`` on the arcs and zeros elsewhere."""
        n = self.s.shape[0]
        check_dense(n, f"the {self.kind.value} walk")
        m = np.zeros((n, n))
        m[self.src, self.dst] = values
        return m

    def stationary(self):
        """pi = s / sum(s); pi_i p_ij = w_ij / sum(s) is symmetric, so detailed balance holds."""
        return StationaryDistribution(kind=self.kind, pi=self.s / self.s.sum())

    def transition(self):
        """p_ij = w_ij / s_i."""
        return TransitionMatrix(kind=self.kind, p=self._dense(self.w / self.s[self.src]))

    def laplacian(self):
        """diag(s) - W."""
        lap = self._dense(-self.w)
        lap[np.diag_indices_from(lap)] = self.s
        return lap


def adjacency_leading_eigvec(g):
    """Positive unit eigenvector psi_1 of the adjacency's leading eigenvalue: MERW's potential.

    A dense ``eigh`` of the N×N adjacency.  It checks no connectivity:
    ``ReversibleWalk`` refuses a disconnected graph before it reads the
    potential.  ``cmd_centrality`` takes psi_1 from the matrix-free
    ``nbcentrality.eigenvector_centrality`` instead.
    """
    return _sign_fix(sym_eig(g.adjacency)[1][:, -1])


def potential(kind, g):
    """Node potential x of a walk kind: 1, adjacency eigenvector psi_1 or NB centrality."""
    kind = WalkKind(kind)
    if kind is WalkKind.TURW:
        return np.ones(g.n)
    if kind is WalkKind.MERW:
        return adjacency_leading_eigvec(g)
    return nb_centrality(g).x


def reversible_walk(kind, g):
    """The walk of ``kind`` on ``g``, keyed by its node potential."""
    return ReversibleWalk(kind, g, potential(kind, g))


def transition(kind, g):
    """Transition matrix p_ij = w_ij / s_i."""
    return reversible_walk(kind, g).transition()


def stationary_closed(kind, g):
    """Closed-form stationary distribution pi = s / sum(s)."""
    return reversible_walk(kind, g).stationary()


def _fundamental_solve(p, rhs, transpose=False):
    """Solve (I - P + 1uᵀ) x = rhs, u = 1/n, or its transpose: nonsingular iff P is irreducible."""
    mat = p.p
    n = mat.shape[0]
    src, dst = np.divmod(np.flatnonzero(mat > 0), n)  # the arcs of P > 0, in row order
    back = np.argsort(dst, kind="stable")  # node 0 must reach all along them and reversed
    if not (reaches_all(n, src, dst) and reaches_all(n, dst[back], src[back])):
        raise InvalidParamsError("transition support not strongly connected: chain reducible")
    if not (np.all(mat >= 0) and np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-12)):
        raise InvalidParamsError("transition matrix not stochastic: an entry < 0 or a row sum off 1 by > 1e-12")
    a = 1.0 / n - mat
    a[np.diag_indices(n)] += 1.0
    try:
        return np.linalg.solve(a.T if transpose else a, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{p.kind.value} chain: I - P + 1uᵀ is numerically singular") from exc


def stationary_generic(p):
    """Oracle: pi from (I - P + 1uᵀ)ᵀ pi = u, which only the stationary pi with sum 1 solves."""
    n = p.p.shape[0]
    pi = _fundamental_solve(p, np.full(n, 1.0 / n), transpose=True)
    res = float(np.max(np.abs(pi - p.p.T @ pi + (pi.sum() - 1.0) / n)))  # of that system
    if res > 1e-8:
        raise InvalidParamsError(f"stationary solve residual {res:.3e} too large")
    return StationaryDistribution(kind=p.kind, pi=pi, method="linear_solve")


def detailed_balance_residual(pi, p):
    """max_ij |pi_i p_ij - pi_j p_ji|."""
    pi = np.asarray(pi, dtype=float)
    flux = pi[:, None] * p.p
    return float(np.max(np.abs(flux - flux.T)))


def ipr(pi):
    """Inverse participation ratio sum(pi^2); in [1/N, 1] for a distribution."""
    pi = np.asarray(pi, dtype=float)
    return float(np.sum(pi * pi))
