"""Parsing, validation, and derived-matrix tests for the graph layer."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    Graph, InvalidParamsError, ParseError, ReversibleWalk, WalkKind, ZeroDenominatorError,
    laplacian, parse_edge_list, reversible_walk, validate,
)

from conftest import complete_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def dense_weights(walk):
    """The N×N weight matrix W, scattered from the walk's arcs."""
    n = walk.s.shape[0]
    w = np.zeros((n, n))
    w[walk.src, walk.dst] = walk.w
    return w


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3
    assert g.num_edges == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_one_based_duplicate_collapses():
    g = parse_edge_list("1 2\n2 1", index_base=1)
    assert g.n == 2
    assert g.num_edges == 1
    assert g.labels == range(1, 3)


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("0 0")


def test_parse_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\nbogus line here")


def test_parse_comments_blanks_and_comma_delimiter():
    g = parse_edge_list("# header\n\n0,1\n1,2  # trailing\n", delimiter=",")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_header_allows_isolated_nodes():
    g = parse_edge_list("%N 4\n0 1\n1 2")
    assert g.n == 4
    assert not validate(g).connected


def test_parse_header_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_edge_list("%N 2\n0 5")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n")


def test_validate_path_is_tree():
    flags = validate(path_graph(3))
    assert flags.connected
    assert flags.is_tree


def test_validate_triangle_not_tree():
    flags = validate(complete_graph(3))
    assert flags.connected
    assert not flags.is_tree


def test_validate_disjoint_edges_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not validate(g).connected


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(InvalidParamsError):
        Graph(n=3, edges=((1, 1),))
    with pytest.raises(InvalidParamsError):
        Graph(n=3, edges=((0, 7),))


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)]
        pairs = [(u, v) for (u, v) in pairs if u != v]
        g = Graph.from_edges(n, pairs)
        a = g.adjacency
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert g.degrees.sum() == 2 * g.num_edges


def test_arcs_and_degrees_match_loop_reference_and_are_cached_read_only(corpus):
    for name, g in corpus + [("isolated", Graph(n=1, edges=()))]:
        pairs = sorted([(u, v) for (u, v) in g.edges] + [(v, u) for (u, v) in g.edges])
        src, dst = g.arcs
        assert list(zip(src.tolist(), dst.tolist())) == pairs, name
        degrees = np.zeros(g.n, dtype=np.int64)
        for (u, v) in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert np.array_equal(g.degrees, degrees), name
        assert np.array_equal(g.adjacency.sum(axis=1), degrees), name
        assert g.degrees is g.degrees and g.arcs is g.arcs
        assert not any(arr.flags.writeable for arr in (src, dst, g.degrees)), name


def test_laplacian_triangle_spectrum():
    evals = np.linalg.eigvalsh(laplacian(complete_graph(3)))
    assert np.allclose(evals, [0.0, 3.0, 3.0], atol=1e-12)


def test_laplacian_path_spectrum():
    evals = np.linalg.eigvalsh(laplacian(path_graph(3)))
    assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)


def test_laplacian_single_edge_spectrum():
    evals = np.linalg.eigvalsh(laplacian(Graph.from_edges(2, [(0, 1)])))
    assert np.allclose(evals, [0.0, 2.0], atol=1e-12)


def test_laplacian_zero_multiplicity_counts_components():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
    evals = np.linalg.eigvalsh(laplacian(g))
    assert int(np.sum(np.abs(evals) < 1e-10)) == 3


def test_weighted_from_centrality_uniform_triangle():
    walk = ReversibleWalk(WalkKind.TURW, complete_graph(3), np.ones(3))
    assert np.allclose(dense_weights(walk), complete_graph(3).adjacency)
    assert np.allclose(walk.s, [2.0, 2.0, 2.0])
    assert walk.s.sum() == pytest.approx(6.0)


def test_weighted_from_centrality_path_values():
    g = path_graph(3)
    walk = ReversibleWalk(WalkKind.NBCRW, g, np.array([1.0, 2.0, 3.0]))
    w = dense_weights(walk)
    assert w[0, 1] == w[1, 0] == pytest.approx(2.0)
    assert w[1, 2] == w[2, 1] == pytest.approx(6.0)
    assert w[0, 2] == w[2, 0] == 0.0
    assert np.allclose(walk.s, [2.0, 8.0, 6.0])
    assert walk.s.sum() == pytest.approx(16.0)


def test_weighted_from_centrality_zero_vector():
    with pytest.raises(ZeroDenominatorError):
        ReversibleWalk(WalkKind.NBCRW, complete_graph(4), np.zeros(4))


def test_weighted_from_centrality_rejects_negative():
    with pytest.raises(InvalidParamsError):
        ReversibleWalk(WalkKind.NBCRW, complete_graph(3), np.array([1.0, -1.0, 1.0]))


def test_weighted_laplacian_path_values():
    g = path_graph(3)
    walk = ReversibleWalk(WalkKind.NBCRW, g, np.array([1.0, 2.0, 3.0]))
    expected = np.array([[2.0, -2.0, 0.0], [-2.0, 8.0, -6.0], [0.0, -6.0, 6.0]])
    assert np.allclose(walk.laplacian(), expected)


def test_weighted_laplacian_matches_unweighted_on_uniform():
    g = complete_graph(3)
    assert np.allclose(reversible_walk(WalkKind.TURW, g).laplacian(), laplacian(g))


def test_walk_outputs_do_not_depend_on_call_order(corpus):
    for name, g in corpus[:10]:
        x = np.linspace(0.5, 1.5, g.n)
        walk = ReversibleWalk(WalkKind.NBCRW, g, x)
        pi = walk.stationary().pi
        p = walk.transition().p
        lap = walk.laplacian()
        p_again = walk.transition().p
        assert np.array_equal(pi, ReversibleWalk(WalkKind.NBCRW, g, x).stationary().pi), name
        assert np.array_equal(p, ReversibleWalk(WalkKind.NBCRW, g, x).transition().p), name
        assert np.array_equal(lap, ReversibleWalk(WalkKind.NBCRW, g, x).laplacian()), name
        assert np.array_equal(p_again, p) and p_again is not p, name


def test_strengths_equal_weight_row_sums(corpus):
    for name, g in corpus[:10]:
        walk = ReversibleWalk(WalkKind.NBCRW, g, np.linspace(0.5, 1.5, g.n))
        assert np.allclose(walk.s, dense_weights(walk).sum(axis=1)), name


def test_graph_rejects_reversed_edge():
    with pytest.raises(InvalidParamsError, match="listed as"):
        Graph(n=3, edges=((1, 0),))


def test_graph_rejects_duplicate_edge():
    # Accepted, duplicates would give degrees [3, 3, 2] but adjacency row sums [2, 2, 2].
    with pytest.raises(InvalidParamsError, match="not sorted and distinct"):
        Graph(n=3, edges=((0, 1), (0, 1), (1, 2), (0, 2)))


def test_graph_rejects_unsorted_edges():
    with pytest.raises(InvalidParamsError, match="not sorted and distinct"):
        Graph(n=3, edges=((1, 2), (0, 1)))


def test_graph_rejects_wrong_label_count():
    with pytest.raises(InvalidParamsError, match="labels"):
        Graph(n=3, edges=((0, 1),), labels=(0, 1))


def test_contiguous_labels_are_a_range_at_any_node_count():
    g = parse_edge_list("%N 3000000000\n0 1\n1 2\n2 0\n", index_base=0)
    assert g.labels == range(3_000_000_000)
    assert Graph(n=5_000_000_000, edges=((0, 1),)).labels == range(5_000_000_000)
    with pytest.raises(InvalidParamsError, match="array index"):
        Graph(n=2**64, edges=((0, 1),))

