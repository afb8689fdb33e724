"""Property tests of the reversible-walk core on small connected non-tree graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbwalk import (
    Graph, InvalidParamsError, ReversibleWalk, TransitionMatrix, WalkKind, hitting_linear,
    hitting_spectral, potential, stationary_closed, transition, validate, walk_hitting,
)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def connected_non_trees(draw):
    """A random spanning tree on 4..9 nodes plus at least one extra edge."""
    n = draw(st.integers(4, 9))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), min_size=1, max_size=n, unique=True))
    return Graph.from_edges(n, tree + extra)


def max_rel_gap(a, b):
    return float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))


@PROPERTY_SETTINGS
@given(g=connected_non_trees(), data=st.data())
def test_relabelling_permutes_p_pi_and_t(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])
    block = np.ix_(perm, perm)
    for kind in WalkKind:
        p, pi, t = transition(kind, g).p, stationary_closed(kind, g).pi, hitting_spectral(kind, g).t
        assert max_rel_gap(transition(kind, h).p[block], p) <= 1e-10, kind
        assert max_rel_gap(stationary_closed(kind, h).pi[perm], pi) <= 1e-10, kind
        assert max_rel_gap(hitting_spectral(kind, h).t[block], t) <= 1e-8, kind


@PROPERTY_SETTINGS
@given(g=connected_non_trees(), scale=st.floats(1e-3, 1e3))
def test_nbcrw_invariant_to_scaling_potential(g, scale):
    x = potential(WalkKind.NBCRW, g)
    base = ReversibleWalk(WalkKind.NBCRW, g, x)
    scaled = ReversibleWalk(WalkKind.NBCRW, g, scale * x)
    src = g.arcs[0]
    assert max_rel_gap(scaled.w / scaled.s[src], base.w / base.s[src]) <= 1e-12
    assert max_rel_gap(scaled.stationary().pi, base.stationary().pi) <= 1e-12
    assert max_rel_gap(walk_hitting(scaled).t, walk_hitting(base).t) <= 1e-9


def count_components(n, edges):
    """Reference: the number of connected components, by union-find."""
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for (u, v) in edges:
        parent[find(u)] = find(v)
    return len({find(u) for u in range(n)})


def strongly_connected(support):
    """Reference: whether the boolean transitive closure of ``support`` is all true."""
    n = support.shape[0]
    reach = support | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    return bool(reach.all())


@PROPERTY_SETTINGS
@given(n=st.integers(1, 30), data=st.data())
def test_validate_connectivity_matches_union_find(n, data):
    # A random tree on the first k nodes plus random extra edges, relabelled:
    # some nodes stay isolated unless an extra edge reaches them.
    k = data.draw(st.integers(1, n))
    perm = data.draw(st.permutations(range(n)))
    node = st.integers(0, n - 1)
    pairs = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    pairs += data.draw(st.lists(st.tuples(node, node), max_size=n))
    edges = [(perm[u], perm[v]) for (u, v) in pairs if u != v]
    g = Graph.from_edges(n, edges)
    assert validate(g).connected == (count_components(n, edges) == 1)


@PROPERTY_SETTINGS
@given(n=st.integers(2, 8), data=st.data())
def test_linear_refuses_exactly_the_reducible_supports(n, data):
    # A directed cycle through every node with up to two arcs dropped, plus
    # random one-way arcs (self-loops included); rows are normalised where
    # nonempty.
    perm = data.draw(st.permutations(range(n)))
    node = st.integers(0, n - 1)
    dropped = data.draw(st.sets(node, max_size=2))
    arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n) if i not in dropped]
    arcs += data.draw(st.lists(st.tuples(node, node), max_size=2 * n))
    support = np.zeros((n, n), dtype=bool)
    for (i, j) in arcs:
        support[i, j] = True
    p = TransitionMatrix(kind=WalkKind.TURW,
                         p=support / np.maximum(support.sum(axis=1, keepdims=True), 1))
    if strongly_connected(support):
        assert np.all(np.isfinite(hitting_linear(p).t))
    else:
        with pytest.raises(InvalidParamsError, match="reducible"):
            hitting_linear(p)
