"""Shared fixtures and graph builders: the cross-module graph corpus and the small named graphs."""

from __future__ import annotations

import pytest

from nbwalk import Graph, RoseSpec, gen_ba, gen_er, gen_ws, leading_eig, make_rose, validate


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def triangle_with_path(length):
    """A triangle 0-1-2 with the pendant path 2-3-...-(length + 2)."""
    edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, length + 2)]
    return Graph.from_edges(length + 3, edges)


def k_with_path(k, length):
    """K_k with a pendant path of ``length`` nodes hung off node k - 1."""
    path = [(i, i + 1) for i in range(k - 1, k - 1 + length)]
    return Graph.from_edges(k + length, [(i, j) for i in range(k) for j in range(i + 1, k)] + path)


def twin_k4(length):
    """Two K4 joined by a path of ``length`` edges, numbered so that node i mirrors N - 1 - i."""
    n = length + 7
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    path = [(i, i + 1) for i in range(3, length + 3)]
    return Graph.from_edges(n, k4 + [(n - 1 - i, n - 1 - j) for i, j in k4] + path)


def ring_with_chord(n):
    """Ring on n nodes (n even) plus the chord (0, n/2).

    That is a theta graph: two branch nodes joined by paths of n/2, n/2 and 1 edges.
    """
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def star_with_chord(n):
    """Star on n nodes (hub 0) plus one chord between two leaves.

    The chord closes a triangle, so the graph is connected and not a tree
    while keeping n - 3 pendant leaves.
    """
    edges = [(0, i) for i in range(1, n)] + [(1, 2)]
    return Graph.from_edges(n, edges)


def dense_pair(m):
    """Leading eigenpair of the explicit matrix ``m`` by ``leading_eig``."""
    return leading_eig(m.__matmul__, size=m.shape[0])


def _usable(g):
    flags = validate(g)
    return flags.connected and not flags.is_tree


def _first_usable(make, base_seed, attempts=2000):
    """Scan seeds until the generator yields a connected non-tree instance."""
    for seed in range(base_seed, base_seed + attempts):
        g = make(seed)
        if _usable(g):
            return g, seed
    raise RuntimeError("no usable instance found in seed scan")


def build_corpus():
    """Named corpus of >= 50 connected non-tree graphs spanning all families."""
    corpus = []
    for m in range(2, 7):
        corpus.append((f"rose-m{m}", make_rose(RoseSpec(m=m))))
    for n in (3, 4, 5, 10):
        corpus.append((f"complete-{n}", complete_graph(n)))
    for n in (4, 5, 6, 10):
        corpus.append((f"cycle-{n}", cycle_graph(n)))
    for n in (6, 10):
        corpus.append((f"star-chord-{n}", star_with_chord(n)))
    for n in (20, 50, 100):
        for p in (0.1, 0.3):
            base = 1000 * n + int(10 * p)
            for trial in range(5):
                g, seed = _first_usable(lambda s: gen_er(n, p, s), base + 100 * trial)
                corpus.append((f"er-{n}-{p}-s{seed}", g))
    for n in (50, 200):
        for m_attach in (2, 3):
            for trial in range(2):
                g, seed = _first_usable(
                    lambda s: gen_ba(n, m_attach, s), 7000 + n + m_attach + 10 * trial
                )
                corpus.append((f"ba-{n}-{m_attach}-s{seed}", g))
    corpus.append(("ws-100-4", gen_ws(100, 4, 0.1, 42)))
    corpus.append(("ws-100-6", gen_ws(100, 6, 0.3, 43)))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    graphs = build_corpus()
    assert len(graphs) >= 50
    for name, g in graphs:
        assert _usable(g), name
    return graphs


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Corpus subset with at most 200 directed edges, for the explicit-matrix oracle."""
    return [(name, g) for name, g in corpus if 2 * g.num_edges <= 400]
