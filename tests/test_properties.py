"""Property tests of the reversible-walk core on small connected non-tree graphs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from nbwalk import (
    Graph, ReversibleWalk, WalkKind, hitting_spectral, potential, stationary_closed, transition,
    walk_hitting,
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
    assert max_rel_gap(scaled.w / scaled.s[:, None], base.w / base.s[:, None]) <= 1e-12
    assert max_rel_gap(scaled.stationary().pi, base.stationary().pi) <= 1e-12
    assert max_rel_gap(walk_hitting(scaled).t, walk_hitting(base).t) <= 1e-9
