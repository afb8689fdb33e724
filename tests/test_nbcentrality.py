"""Non-backtracking matrix, its reduced form, and node centralities."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from nbwalk import (
    Graph, InvalidParamsError, NotConnectedError, RoseSpec, TreeGraphError, WalkKind,
    build_m_matrix, build_nb_matrix, gen_ba, gen_er, make_rose, nb_centrality,
    reversible_walk, rose4_oracle, verify_b_vs_m,
)
from nbwalk.nbcentrality import _m_operator

from conftest import complete_graph, cycle_graph, dense_pair, star_with_chord


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def ring_with_chord(n):
    """Ring on n nodes (n even) plus the chord (0, n/2).

    That is a theta graph: two branch nodes joined by paths of n/2, n/2 and 1 edges.
    """
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def theta_kappa(lengths):
    """NB leading eigenvalue of a theta graph with path lengths l_j.

    It is the root in (1, 2) of sum_j 1 / (1 + kappa^l_j) = 1, found by bisection.
    """
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(1.0 / (1.0 + mid**l) for l in lengths) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_nb_matrix_single_edge_is_zero():
    b = build_nb_matrix(Graph.from_edges(2, [(0, 1)]))
    assert b.shape == (2, 2)
    assert not np.any(b)


def test_nb_matrix_triangle():
    b = build_nb_matrix(complete_graph(3))
    assert b.shape == (6, 6)
    assert np.all(b.sum(axis=1) == 1)
    assert dense_pair(b, shift=1.0).value == pytest.approx(1.0, abs=1e-10)


def test_nb_matrix_rose():
    b = build_nb_matrix(make_rose(RoseSpec(m=2)))
    # 2E = 16 directed edges: 4 edges per petal, 2 petals.
    assert b.shape == (16, 16)
    assert dense_pair(b, shift=1.0).value == pytest.approx(3.0**0.25, abs=1e-9)


def test_nb_matrix_entry_rule_and_row_sums(small_corpus):
    for name, g in small_corpus[:8]:
        b = build_nb_matrix(g)
        degs = g.degrees
        arcs = list(zip(*(a.tolist() for a in g.arcs)))
        assert b.shape == (len(arcs), len(arcs)), name
        for row, (i, j) in zip(b, arcs):
            assert row.sum() == degs[j] - 1, name
            for col, (k, l) in enumerate(arcs):
                expected = 1.0 if (j == k and i != l) else 0.0
                assert row[col] == expected, name


def test_m_matrix_triangle_blocks():
    g = complete_graph(3)
    m = build_m_matrix(g)
    a = g.adjacency
    assert np.array_equal(m[:3, :3], a)
    assert np.array_equal(m[:3, 3:], np.eye(3) - np.diag([2.0, 2.0, 2.0]))
    assert np.array_equal(m[3:, :3], np.eye(3))
    assert not np.any(m[3:, 3:])
    assert dense_pair(m, shift=2.0).value == pytest.approx(1.0, abs=1e-10)


def test_m_matrix_complete_four():
    pair = dense_pair(build_m_matrix(complete_graph(4)), shift=3.0)
    assert pair.value == pytest.approx(2.0, abs=1e-10)


def test_m_operator_matches_dense_m(corpus):
    rng = np.random.default_rng(11)
    roses = [(f"rose-m{m}", make_rose(RoseSpec(m=m))) for m in (10, 40)]
    for name, g in corpus + roses:
        op = _m_operator(g)
        m = build_m_matrix(g)
        for _ in range(3):
            z = rng.standard_normal(2 * g.n)
            expected = m @ z
            assert np.max(np.abs(op(z) - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected))), name


def test_solver_diagnostics():
    power = nb_centrality(make_rose(RoseSpec(m=3)))
    assert power.path == "power" and power.iterations > 0
    polished = nb_centrality(gen_ba(50, 2, 3))
    assert polished.path == "power" and polished.polished
    unicyclic = nb_centrality(cycle_graph(6))
    assert (unicyclic.path, unicyclic.iterations, unicyclic.polished) == ("unicyclic", 0, False)
    # A long ring with one chord has its leading eigenvalue close to the rest
    # of the spectrum, so power iteration exhausts its 100 steps per dimension
    # (with the unit shift, rings of 160 and 200 nodes still converge; every
    # even size from 204 to 260 tried in steps of 4 does not).
    g = ring_with_chord(240)
    dense = nb_centrality(g)
    assert dense.path == "dense" and dense.iterations == 100 * 2 * g.n
    assert dense.kappa == pytest.approx(theta_kappa((120, 120, 1)), abs=1e-12)


@pytest.fixture(scope="module")
def ba20000():
    return gen_ba(20000, 2, 1)


def _traced_peak(func):
    """Return value of ``func()`` and the tracemalloc peak it reached, in bytes."""
    tracemalloc.start()
    try:
        out = func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_centrality_memory_is_linear_in_edges(ba20000):
    # The dense M of BA(20000, 2) would take 12.8 GB; the operator path
    # needs a few arrays of length 2N and 2E.
    nc, peak = _traced_peak(lambda: nb_centrality(ba20000))
    assert nc.path == "power"
    assert peak < 32 * 2**20


@pytest.mark.parametrize("kind", [WalkKind.TURW, WalkKind.NBCRW])
def test_walk_stationary_memory_is_linear_in_edges(ba20000, kind):
    # A dense W of BA(20000, 2) would take 3.2 GB; the walk holds 2E arc
    # weights and N strengths.
    sd, peak = _traced_peak(lambda: reversible_walk(kind, ba20000).stationary())
    assert sd.pi.sum() == pytest.approx(1.0)
    assert peak < 32 * 2**20


def test_tree_graph_gate():
    with pytest.raises(TreeGraphError):
        nb_centrality(path_graph(3))


def test_not_connected_gate():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(NotConnectedError):
        nb_centrality(g)


def test_regular_graph_uniform_centrality():
    for g, d in ((complete_graph(5), 4), (cycle_graph(5), 2), (complete_graph(10), 9)):
        nc = nb_centrality(g)
        kappa = d - 1.0
        assert nc.kappa == pytest.approx(kappa, abs=1e-9)
        expected = 1.0 / np.sqrt(g.n * (1.0 + 1.0 / kappa**2))
        assert np.allclose(nc.x, expected, atol=1e-9)


def test_rose_centrality_matches_closed_forms():
    for m in (2, 3, 5):
        oracle = rose4_oracle(m)
        nc = nb_centrality(make_rose(RoseSpec(m=m)))
        assert nc.kappa == pytest.approx(oracle.kappa1, rel=1e-10)
        assert nc.x[0] == pytest.approx(oracle.x_hub, rel=1e-9)
        assert nc.x[1] == pytest.approx(oracle.x_int, rel=1e-9)
        assert nc.x[3] == pytest.approx(oracle.x_per, rel=1e-9)


def test_incoming_centrality_identity(corpus):
    for name, g in corpus[:15]:
        nc = nb_centrality(g)
        lhs = nc.kappa * nc.y
        rhs = (g.degrees - 1.0) * nc.x
        assert np.max(np.abs(lhs - rhs)) <= 1e-9, name


def test_reduced_eigen_equation_residual(corpus):
    for name, g in corpus[:15]:
        nc = nb_centrality(g)
        a = g.adjacency
        d = np.diag(g.degrees.astype(float))
        res = (a - d / nc.kappa + np.eye(g.n) / nc.kappa) @ nc.x - nc.kappa * nc.x
        assert np.max(np.abs(res)) <= 1e-9, name


def test_stacked_vector_normalization():
    nc = nb_centrality(make_rose(RoseSpec(m=4)))
    stacked = np.concatenate([nc.x, nc.x / nc.kappa])
    assert np.linalg.norm(stacked) == pytest.approx(1.0, abs=1e-12)
    assert np.all(nc.x >= 0)


def test_pendant_nodes_keep_positive_outgoing_centrality():
    # Star plus one chord: leaves hang off the triangle, yet the outgoing
    # centrality stays positive everywhere (only the incoming one vanishes).
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5)])
    nc = nb_centrality(g)
    assert np.all(nc.x > 0)
    assert np.allclose(nc.y[3:], 0.0, atol=1e-12)


def test_verify_b_vs_m_triangle():
    out = verify_b_vs_m(complete_graph(3))
    assert out["max_gap"] <= 1e-10
    assert out["kappa_m"] == pytest.approx(1.0, abs=1e-10)


def test_verify_b_vs_m_rose():
    out = verify_b_vs_m(make_rose(RoseSpec(m=3)))
    assert out["kappa_b"] == pytest.approx(5.0**0.25, abs=1e-8)
    assert out["kappa_m"] == pytest.approx(5.0**0.25, abs=1e-8)
    assert out["kappa_b"] == pytest.approx(1.4953488, abs=1e-6)


def test_verify_b_vs_m_er_instance():
    out = verify_b_vs_m(gen_er(30, 0.2, 7))
    assert out["max_gap"] <= 1e-8


def test_verify_b_vs_m_cap():
    with pytest.raises(InvalidParamsError):
        verify_b_vs_m(complete_graph(30))


@pytest.mark.parametrize("g, error", [
    (path_graph(3), TreeGraphError),
    (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), NotConnectedError),
    (Graph.from_edges(2, [(0, 1)]), TreeGraphError),
    (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), TreeGraphError),
    (star_with_chord(5), None),
], ids=["path3", "two-triangles", "single-edge", "star3", "star-with-chord"])
def test_verify_b_vs_m_refuses_what_nb_centrality_refuses(g, error):
    # The M side is nb_centrality itself, so its gates apply before B is built:
    # a tree (kappa = 0) or a disconnected graph gets no numbers.
    if error is not None:
        with pytest.raises(error):
            verify_b_vs_m(g)
        return
    out = verify_b_vs_m(g)
    assert out["kappa_m"] == nb_centrality(g).kappa
    assert out["max_gap"] <= 1e-10
