"""Parsing, validation, and derived-matrix tests for the graph layer."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    Graph, InvalidParamsError, ParseError, ReversibleWalk, WalkKind, ZeroDenominatorError,
    laplacian, parse_edge_list, reversible_walk, validate,
)

from conftest import complete_graph, cycle_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3
    assert g.num_edges == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_one_based_duplicate_collapses():
    g = parse_edge_list("1 2\n2 1", index_base=1)
    assert g.n == 2
    assert g.num_edges == 1
    assert g.labels == (1, 2)


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
    assert flags.min_degree == 1


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
    assert np.allclose(walk.w, complete_graph(3).adjacency)
    assert np.allclose(walk.s, [2.0, 2.0, 2.0])
    assert walk.s.sum() == pytest.approx(6.0)


def test_weighted_from_centrality_path_values():
    g = path_graph(3)
    walk = ReversibleWalk(WalkKind.NBCRW, g, np.array([1.0, 2.0, 3.0]))
    assert walk.w[0, 1] == pytest.approx(2.0)
    assert walk.w[1, 2] == pytest.approx(6.0)
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
    assert walk.w is None


def test_weighted_laplacian_matches_unweighted_on_uniform():
    g = complete_graph(3)
    assert np.allclose(reversible_walk(WalkKind.TURW, g).laplacian(), laplacian(g))


def test_strengths_equal_weight_row_sums(corpus):
    for name, g in corpus[:10]:
        walk = ReversibleWalk(WalkKind.NBCRW, g, np.linspace(0.5, 1.5, g.n))
        assert np.allclose(walk.s, walk.w.sum(axis=1)), name


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


def test_fingerprint_distinguishes_graphs():
    assert complete_graph(3).fingerprint() != cycle_graph(4).fingerprint()
    assert complete_graph(3).fingerprint() == complete_graph(3).fingerprint()
