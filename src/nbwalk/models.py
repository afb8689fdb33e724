"""Graph generators (rose, ER, BA, WS) and the rose-graph closed-form oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .graph import MAX_EXACT_INT, Graph, check_entries
from .walks import WalkKind


@dataclass(frozen=True)
class RoseSpec:
    """m petals, each an l-cycle, glued at one hub node."""

    m: int
    l: int = 4

    def __post_init__(self):
        if self.m < 2:
            raise InvalidParamsError(f"petal count must be >= 2, got {self.m}")
        if self.l < 4 or self.l % 2 != 0:
            raise InvalidParamsError(f"cycle length must be even and >= 4, got {self.l}")
        check_entries(self.m * self.l, "rose edge count")


def make_rose(spec):
    """Rose graph with hub = node 0 and petal i on nodes b .. b+l-2, b = 1 + i(l-1).

    Each petal is the cycle 0, b, b+2, b+3, ..., b+l-2, b+1, 0: b and b+1 are
    the hub's neighbours.  For l = 4 the internal nodes are 3i+1 and 3i+2 and
    the peripheral node is 3i+3.
    """
    m, l = spec.m, spec.l
    n = 1 + m * (l - 1)
    edges = []
    for b in range(1, n, l - 1):
        cycle = [0, b, *range(b + 2, b + l - 1), b + 1]
        edges += zip(cycle, cycle[1:] + [0])
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class RoseOracle4:
    """Closed-form reference values for the rose graph with 4-cycles."""

    m: int
    kappa1: float
    x_hub: float
    x_int: float
    x_per: float
    pi: dict
    t_hub: dict
    t_global: dict
    t_class: dict


def rose4_oracle(m):
    """Every rose-R_m^4 closed form, the per-kind ones keyed by walk kind."""
    if not 2 <= m <= MAX_EXACT_INT:
        raise InvalidParamsError(f"petal count must be in [2, 2**53], got {m}")
    r = math.sqrt(2 * m - 1)
    kappa = (2 * m - 1) ** 0.25
    k2 = kappa * kappa
    shared = math.sqrt(
        (k2 + 1) * (kappa**8 + 2 * kappa**6 + 2 * (8 * m - 3) * kappa**4
                    + 2 * (2 * m - 1) ** 2 * k2 + (2 * m - 1) ** 2)
    )
    x_hub = 2 * math.sqrt(m) * kappa**3 / shared
    x_int = kappa**2 * (k2 + 2 * m - 1) / (math.sqrt(m) * shared)
    x_per = kappa * (kappa**4 + 2 * m - 1) / (math.sqrt(m) * shared)

    pi = {
        WalkKind.TURW: (0.25, 1.0 / (4 * m), 1.0 / (4 * m)),
        WalkKind.NBCRW: (
            m / (2.0 * (m + r)),
            1.0 / (4 * m),
            (m * r - 2 * m + 1) / (2.0 * m * (m - 1) ** 2),
        ),
        WalkKind.MERW: (
            m / (2.0 * m + 2.0),
            1.0 / (4 * m),
            1.0 / (2.0 * m * (m + 1)),
        ),
    }
    t_class = {
        WalkKind.TURW: {
            "I->H": 3.0,
            "P->H": 4.0,
            "H->I": 6.0 * m - 3.0,
            "I->I": 4.0 * m,
            "P->I": 2.0 * m + 1.0,
            "H->P": 8.0 * m - 4.0,
            "I->P": 4.0 * m - 1.0,
        },
        WalkKind.NBCRW: {
            "I->H": 1.0 + 2.0 * r / m,
            "P->H": 2.0 + 2.0 * r / m,
            "H->I": 4.0 * m + 2.0 * r - 1.0 - 2.0 * r / m,
            "I->I": 4.0 * m,
            "P->I": 2.0 * m + 1.0,
            "H->P": (4 * m**2 * r + 2 * m**3 + 4 * m**2 - 2 * m * r - 6 * m + 2) / (m * r),
            "I->P": 2.0 * m**2 / r + 2.0 * m - 1.0,
        },
        WalkKind.MERW: {
            "I->H": (m + 2.0) / m,
            "P->H": 2.0 * (m + 1.0) / m,
            "H->I": 4.0 * m + 1.0 - 2.0 / m,
            "I->I": 4.0 * m,
            "P->I": 2.0 * m + 1.0,
            "H->P": 2.0 * (m + 1.0) * (m**2 + m - 1.0) / m,
            "I->P": 2.0 * m * (m + 1.0) - 1.0,
        },
    }
    t_hub = {
        WalkKind.TURW: 10.0 / 3.0,
        WalkKind.NBCRW: 4.0 / 3.0 + 2.0 * r / m,
        WalkKind.MERW: 4.0 / 3.0 + 2.0 / m,
    }
    t_global = {
        WalkKind.TURW: 20.0 * m * (3 * m - 1) / (3.0 * (3 * m + 1)),
        WalkKind.NBCRW: (2 * m**3 + 12 * m**2 - 14 * m + 4) / ((3 * m + 1) * r)
        + (36 * m**2 - 8 * m) / (3.0 * (3 * m + 1)),
        WalkKind.MERW: (6 * m**3 + 36 * m**2 + 10 * m - 12) / (9.0 * m + 3.0),
    }
    return RoseOracle4(
        m=m, kappa1=kappa, x_hub=x_hub, x_int=x_int, x_per=x_per,
        pi=pi, t_hub=t_hub, t_global=t_global, t_class=t_class,
    )


def gen_er(n, p, seed):
    """Erdos-Renyi G(n, p) with a seeded generator."""
    if n < 2 or not (0.0 <= p <= 1.0):
        raise InvalidParamsError(f"invalid ER parameters n={n}, p={p}")
    check_entries(n, "ER node count")
    check_entries(round(p * (n * (n - 1) // 2)), "ER expected edge count")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):  # one uniform per pair (i, j > i), row by row: O(n) scratch
        edges += [(i, j) for j in (np.flatnonzero(rng.random(n - 1 - i) < p) + i + 1).tolist()]
    return Graph.from_edges(n, edges)


def gen_ba(n, m_attach, seed):
    """Barabasi-Albert preferential attachment seeded with an (m+1)-clique.

    Each new node attaches to ``m_attach`` distinct existing nodes via
    repeated degree-weighted draws (no multi-edges).
    """
    if m_attach < 1 or n < m_attach + 2:
        raise InvalidParamsError(f"invalid BA parameters n={n}, m_attach={m_attach}")
    check_entries(n, "BA node count")
    check_entries(n * m_attach, "BA edge count")
    rng = np.random.default_rng(seed)
    m0 = m_attach + 1
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    degrees = np.zeros(n)
    degrees[:m0] = m0 - 1
    for new in range(m0, n):
        # Generator.choice(new, p)'s inverse-CDF draw, with its CDF built once per node.
        cdf = np.cumsum(degrees[:new] / degrees[:new].sum())
        cdf /= cdf[-1]
        targets = set()
        while len(targets) < m_attach:
            targets.add(int(cdf.searchsorted(rng.random(), side="right")))
        for t in sorted(targets):
            edges.append((t, new))
            degrees[t] += 1
        degrees[new] = m_attach
    return Graph.from_edges(n, edges)


def gen_ws(n, k, beta, seed):
    """Watts-Strogatz ring of even degree k rewired with probability beta.

    Each lattice edge (u, u+j), j = 1 .. k/2 in turn, is rewired with
    probability beta to (u, w) for the first w != u not yet joined to u
    among at most 100n + 1 uniform draws, and is kept if none is.
    """
    if k < 2 or k % 2 != 0 or k >= n or not (0.0 <= beta <= 1.0):
        raise InvalidParamsError(f"invalid WS parameters n={n}, k={k}, beta={beta}")
    check_entries(n, "WS node count")
    check_entries(n * k // 2, "WS edge count")
    rng = np.random.default_rng(seed)
    ring = [(u, (u + j) % n) for j in range(1, k // 2 + 1) for u in range(n)]
    present = {(min(e), max(e)) for e in ring}
    for u, v in ring:
        if rng.random() < beta:
            for _ in range(100 * n + 1):
                w = int(rng.integers(n))
                if w != u and (min(u, w), max(u, w)) not in present:
                    present.remove((min(u, v), max(u, v)))
                    present.add((min(u, w), max(u, w)))
                    break
            else:
                rng.integers(n)  # one dropped draw past the cap: the seeded graphs depend on it
    return Graph.from_edges(n, sorted(present))


def scaling_table(kind, m_list):
    """Rows (N_m, closed-form global mean hitting time) for exponent fitting."""
    kind = WalkKind(kind)
    return [(3 * m + 1, rose4_oracle(m).t_global[kind]) for m in m_list]


def loglog_slope(rows):
    """Least-squares slope of log(t_global) against log(N_m)."""
    ns = np.log([r[0] for r in rows])
    ts = np.log([r[1] for r in rows])
    return float(np.polyfit(ns, ts, 1)[0])


def corrected_exponent(rows):
    """Exponent alpha of a least-squares fit of log T = a + alpha log N + sum b_k N^(-k/2).

    The fit has six parameters, so fewer than six distinct N leave it
    underdetermined and are refused.
    """
    n = np.array([r[0] for r in rows], dtype=float)
    sizes = len(np.unique(n))
    if sizes < 6:
        raise InvalidParamsError(f"{sizes} distinct sizes underdetermine the 6-parameter fit")
    t = np.array([r[1] for r in rows], dtype=float)
    design = np.column_stack([np.ones_like(n), np.log(n)]
                             + [n ** (-k / 2) for k in range(1, 5)])
    coef = np.linalg.lstsq(design, np.log(t), rcond=None)[0]
    return float(coef[1])
