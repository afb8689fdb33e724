"""The paper's formulas, the per-target absorbing solves, GTH elimination, the ER, BA and WS
generators, the per-line edge-list parser and a leaf-by-leaf peel and chain walk, as test
oracles.

None of these is a production path: the library computes every walk from one
reversible-walk kernel and parses with array operations, and the tests hold
it to these independent routes.
"""

from __future__ import annotations

import sys

import numpy as np

from nbwalk import (
    Graph, HittingReport, InvalidParamsError, NotConnectedError, ParseError,
    StationaryDistribution, WalkKind, ZeroDenominatorError, nb_centrality, sym_eig, validate,
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


def gen_ba_reference(n, m_attach, seed):
    """Barabasi-Albert attachment by one ``Generator.choice(new, p=p)`` per draw.

    ``gen_ba`` inverts the same uniforms against one CDF per new node; this
    keeps the per-draw ``choice`` as the reference for its edge sets.
    """
    rng = np.random.default_rng(seed)
    m0 = m_attach + 1
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    degrees = np.zeros(n)
    degrees[:m0] = m0 - 1
    for new in range(m0, n):
        targets = set()
        weights = degrees[:new]
        while len(targets) < m_attach:
            pick = int(rng.choice(new, p=weights / weights.sum()))
            targets.add(pick)
        for t in sorted(targets):
            edges.append((t, new))
            degrees[t] += 1
        degrees[new] = m_attach
    return Graph.from_edges(n, edges)


def gen_ws_reference(n, k, beta, seed):
    """Watts-Strogatz rewiring by a ``while ... else`` loop with an attempt counter.

    ``gen_ws`` draws the same stream in one bounded loop; this keeps the
    counted loop, with its membership test of each lattice key, as the
    reference for its edge sets.
    """
    rng = np.random.default_rng(seed)
    present = {(u, (u + j) % n) for u in range(n) for j in range(1, k // 2 + 1)}
    present = {(min(u, v), max(u, v)) for (u, v) in present}
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            key = (min(u, v), max(u, v))
            if key not in present:
                continue
            if rng.random() < beta:
                w = int(rng.integers(n))
                attempts = 0
                while w == u or (min(u, w), max(u, w)) in present:
                    w = int(rng.integers(n))
                    attempts += 1
                    if attempts > 100 * n:
                        break
                else:
                    present.remove(key)
                    present.add((min(u, w), max(u, w)))
    return Graph.from_edges(n, sorted(present))


def graph_reference(n, edges, labels=None):
    """``(n, edges, labels)`` as ``Graph(n, edges, labels)`` keeps them, checked edge by edge.

    Raises the ``InvalidParamsError`` that ``Graph`` raises, for the first
    failing check in order: node count, labels, then each edge in turn.
    """
    if n < 1:
        raise InvalidParamsError(f"node count must be >= 1, got {n}")
    if n > sys.maxsize:
        raise InvalidParamsError(f"node count {n} is beyond any array index")
    if labels is None:
        labels = range(n)
    if len(labels) != n:
        raise InvalidParamsError(f"{len(labels)} labels for n={n} nodes")
    prev = None
    for (u, v) in edges:
        if u == v:
            raise InvalidParamsError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParamsError(f"edge ({u}, {v}) out of range for n={n}")
        if u > v:
            raise InvalidParamsError(f"edge ({u}, {v}) must be listed as ({v}, {u})")
        if prev is not None and (u, v) <= prev:
            raise InvalidParamsError(f"edges not sorted and distinct at ({u}, {v})")
        prev = (u, v)
    return n, tuple(edges), labels


def from_edges_reference(n, edges, labels=None):
    """``Graph.from_edges`` by a set of (min, max) tuples and ``sorted``."""
    canonical = {(min(u, v), max(u, v)) for (u, v) in edges}
    return graph_reference(n, sorted(canonical), labels)


def parse_edge_list_reference(text, index_base=0, delimiter=None):
    """``parse_edge_list`` one line at a time: ``(n, edges, labels, duplicates)`` or its error."""
    if index_base not in (0, 1):
        raise InvalidParamsError(f"index_base must be 0 or 1, got {index_base}")
    header_n = None
    raw_edges = []
    max_id = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%N"):
            try:
                header_n = int(line[2:].strip())
            except ValueError:
                raise ParseError("malformed %N header", lineno)
            if header_n < 1:
                raise ParseError("node count in %N header must be >= 1", lineno)
            continue
        tokens = line.split(delimiter)
        tokens = [t for t in (tok.strip() for tok in tokens) if t]
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {tokens!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at node {u}", lineno)
        if u < index_base or v < index_base:
            raise ParseError(f"node id below index base {index_base}", lineno)
        u -= index_base
        v -= index_base
        raw_edges.append((u, v))
        top = max(u, v)
        max_id = top if max_id is None else max(max_id, top)
    if header_n is None and max_id is None:
        raise ParseError("empty edge list and no %N header")
    n = header_n if header_n is not None else max_id + 1
    if max_id is not None and max_id >= n:
        raise ParseError(f"node id {max_id + index_base} out of range for %N {n}")
    n, edges, labels = from_edges_reference(n, raw_edges, labels=range(index_base, n + index_base))
    return n, edges, labels, len(raw_edges) - len(edges)


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


def gth_hitting(walk, j):
    """Hitting times T_ij to the target ``j`` from every node i, by GTH elimination on the arc weights.

    With t_j = 0, the times solve s_i t_i - Σ_k w_ik t_k = s_i for i ≠ j.
    Grassmann, Taksar & Heyman (Oper. Res. 1985) eliminate one node k ≠ j at
    a time by rerouting its flows, w_ab += w_ak w_kb / d_k, where the pivot
    d_k is the sum of k's remaining outflows, the flow into j included, and
    not s_k less a self-loop.  Every pivot is a sum of nonnegative terms and
    no step subtracts, so each T_ij carries a small relative error of its own
    (O'Cinneide, Numer. Math. 1993), however widely the strengths spread.
    O(N³) per target.
    """
    n = walk.s.shape[0]
    order = np.r_[np.delete(np.arange(n), j), j]  # the target last, never eliminated
    w = np.zeros((n, n))
    w[walk.src, walk.dst] = walk.w
    w = w[np.ix_(order, order)]
    rhs = walk.s[order].copy()
    pivots = np.zeros(n - 1)
    for k in range(n - 1):
        pivots[k] = w[k, k + 1:].sum()
        share = w[k + 1:-1, k] / pivots[k]  # of each later node's flow into k
        w[k + 1:-1, k + 1:] += share[:, None] * w[k, k + 1:][None, :]
        rhs[k + 1:-1] += share * rhs[k]
    t = np.zeros(n)
    for k in range(n - 2, -1, -1):  # row k as it stood when k was eliminated
        t[k] = (rhs[k] + w[k, k + 1:] @ t[k + 1:]) / pivots[k]
    out = np.empty(n)
    out[order] = t
    return out


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


def reduction_reference(g):
    """The 1-shell, the 2-core degrees and the chains, one node and one step at a time.

    Strips one degree-1 node at a time from a work list, recording the
    neighbour it still has, then walks from each branch node (core degree 3
    or more) along each core edge through the nodes of core degree 2 until
    it meets a branch node again.  Returns ``(parent, core_degrees, chains)``:
    ``parent`` maps each peeled node to that neighbour, and ``chains`` is the
    sorted list of node tuples (tail, inner nodes..., head), one per chain
    and direction.  For a connected graph that is neither a tree nor a cycle.
    """
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    stack = [u for u in range(g.n) if len(nbrs[u]) == 1]
    parent = {}
    while stack:
        u = stack.pop()
        if len(nbrs[u]) != 1:
            continue
        (p,) = nbrs[u]
        parent[u] = p
        nbrs[u].clear()
        nbrs[p].discard(u)
        if len(nbrs[p]) == 1:
            stack.append(p)
    core_degrees = [len(s) for s in nbrs]
    chains = []
    for b in range(g.n):
        if core_degrees[b] < 3:
            continue
        for first in sorted(nbrs[b]):
            walk = [b, first]
            while core_degrees[walk[-1]] == 2:
                (nxt,) = nbrs[walk[-1]] - {walk[-2]}
                walk.append(nxt)
            chains.append(tuple(walk))
    return parent, core_degrees, sorted(chains)
