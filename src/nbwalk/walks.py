"""Transition matrices, stationary distributions, and the IPR metric.

Every walk is the reversible walk on W = A∘xxᵀ for a node potential x: x = 1
(TURW), the leading adjacency eigenvector (MERW) or the NB centrality (NBCRW).
W is held on the graph's 2E arcs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, NotConnectedError, ZeroDenominatorError
from .graph import reaches_all, validate
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
    ``laplacian`` each scatter ``w`` onto a fresh dense matrix.  A disconnected
    graph is refused first, then a zero strength; every s_i > 0 needs every
    x_i > 0, so the support of W is then the connected graph itself.
    """

    def __init__(self, kind, g, x):
        self.kind = WalkKind(kind)
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise InvalidParamsError("negative potential entry")
        self.src, self.dst = g.arcs
        if not reaches_all(g.n, self.src, self.dst):
            raise NotConnectedError("graph is not connected")
        self.w = x[self.src] * x[self.dst]
        self.s = np.bincount(self.src, weights=self.w, minlength=g.n)
        bad = np.flatnonzero(self.s <= 0.0)
        if bad.size:
            raise ZeroDenominatorError(int(bad[0]))

    def _dense(self, values):
        """The N×N matrix with ``values`` on the arcs and zeros elsewhere."""
        n = self.s.shape[0]
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
    """Leading eigenvalue and positive unit eigenvector of the adjacency matrix."""
    if not validate(g).connected:
        raise NotConnectedError("graph is not connected")
    evals, evecs = sym_eig(g.adjacency)
    return float(evals[-1]), _sign_fix(evecs[:, -1])


def potential(kind, g):
    """Node potential x of a walk kind: 1, adjacency eigenvector psi_1 or NB centrality."""
    kind = WalkKind(kind)
    if kind is WalkKind.TURW:
        return np.ones(g.n)
    if kind is WalkKind.MERW:
        return adjacency_leading_eigvec(g)[1]
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


def stationary_generic(p):
    """Oracle: solve pi P = pi with the normalization row appended."""
    mat = p.p
    n = mat.shape[0]
    a = np.vstack([mat.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n:
        raise InvalidParamsError("singular stationary system: chain is reducible")
    res = float(np.max(np.abs(a @ pi - b)))
    if res > 1e-8:
        raise InvalidParamsError(f"stationary solve residual {res:.3e} too large")
    return StationaryDistribution(kind=p.kind, pi=pi, method="linear_solve")


def stationary_nbcrw_formula(g):
    """Oracle: the paper's NBCRW closed form pi ∝ ((kappa^2 - 1)/kappa + d/kappa) x^2.

    It agrees with s / sum(s) up to the residual of the centrality eigenpair.
    """
    nc = nb_centrality(g)
    kappa = nc.kappa
    weights = ((kappa**2 - 1.0) / kappa + g.degrees / kappa) * nc.x**2
    q = weights.sum()
    if q <= 0:
        raise ZeroDenominatorError(-1, "degenerate stationary normalization")
    return StationaryDistribution(kind=WalkKind.NBCRW, pi=weights / q, method="closed_form")


def detailed_balance_residual(pi, p):
    """max_ij |pi_i p_ij - pi_j p_ji|."""
    pi = np.asarray(pi, dtype=float)
    flux = pi[:, None] * p.p
    return float(np.max(np.abs(flux - flux.T)))


def ipr(pi):
    """Inverse participation ratio sum(pi^2); in [1/N, 1] for a distribution."""
    pi = np.asarray(pi, dtype=float)
    return float(np.sum(pi * pi))
