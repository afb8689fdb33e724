"""Shared fixtures and reference oracles: the cross-module graph corpus and the hitting-time references."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    Graph, HittingReport, NotConnectedError, RoseSpec, gen_ba, gen_er, gen_ws, leading_eig,
    make_rose, sym_eig, validate,
)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_with_chord(n):
    """Star on n nodes (hub 0) plus one chord between two leaves.

    The chord closes a triangle, so the graph is connected and not a tree
    while keeping n - 3 pendant leaves.
    """
    edges = [(0, i) for i in range(1, n)] + [(1, 2)]
    return Graph.from_edges(n, edges)


def dense_pair(m, shift):
    """Leading eigenpair of the explicit matrix ``m``, iterated on ``m + shift*I``."""
    return leading_eig(m.__matmul__, size=m.shape[0], shift=shift, dense=lambda: m)


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
