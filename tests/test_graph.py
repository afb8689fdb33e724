"""Parsing, validation, and derived-matrix tests for the graph layer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbwalk import (
    Graph, InvalidParamsError, NotConnectedError, ParseError, ReversibleWalk, WalkKind,
    ZeroDenominatorError, graph as graph_module, parse_edge_list, reversible_walk, validate,
)

from conftest import complete_graph, path_graph, ring_with_chord, triangle_with_path
from oracles import (
    from_edges_reference, graph_reference, laplacian, parse_edge_list_reference,
    reduction_reference,
)

EQUIVALENCE_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


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


def test_parse_returns_the_duplicate_count():
    g, duplicates = parse_edge_list("0 1\n1 0\n1 2\n2 0\n0 2\n0 1\n", return_duplicates=True)
    assert (g.num_edges, duplicates) == (3, 3)
    assert parse_edge_list("0 1\n1 2\n2 0\n", return_duplicates=True)[1] == 0


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


@pytest.mark.parametrize("text, index_base, error, line", [
    ("0 1\n%N four\n", 0, ParseError, 2),
    ("# header\n%N 0\n0 1\n", 0, ParseError, 2),
    ("0 1\n1 2\n2 x\n", 0, ParseError, 3),
    ("1 2\n2 3\n3 0\n", 1, ParseError, 3),
    ("0 1\n", 2, InvalidParamsError, None),
], ids=["malformed-header", "header-zero", "non-integer-id", "id-below-base", "index-base-2"])
def test_parse_errors_name_their_line(text, index_base, error, line):
    with pytest.raises(error) as exc:
        parse_edge_list(text, index_base=index_base)
    assert type(exc.value) is error
    assert getattr(exc.value, "line_number", None) == line
    if line is not None:
        assert str(exc.value).startswith(f"line {line}: ")


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
    # A NaN or infinite entry would give NaN strengths, pi and rows of P.
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParamsError, match="finite and >= 0"):
            ReversibleWalk(WalkKind.NBCRW, complete_graph(3), np.array([1.0, bad, 1.0]))


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


def test_connected_is_one_dfs_per_graph(monkeypatch):
    calls = []
    reaches_all = graph_module.reaches_all
    monkeypatch.setattr(graph_module, "reaches_all", lambda *a: calls.append(a) or reaches_all(*a))
    g = complete_graph(4)
    assert validate(g).connected and validate(g).connected
    reversible_walk(WalkKind.NBCRW, g)
    assert len(calls) == 1
    with pytest.raises(NotConnectedError):
        ReversibleWalk(WalkKind.TURW, Graph.from_edges(4, [(0, 1), (2, 3)]), np.ones(4))


def test_graph_is_immutable_and_edges_are_int_pairs():
    g = Graph.from_edges(4, np.array([[3, 1], [0, 2], [1, 3]]))
    assert g.edges == ((0, 2), (1, 3)) and all(type(x) is int for e in g.edges for x in e)
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(InvalidParamsError, match="pairs"):
        Graph(n=4, edges=((0, 1, 2),))


def outcome(build):
    """What ``build()`` returns, or the type, message and line number of what it raises."""
    try:
        return build()
    except (ParseError, InvalidParamsError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def parsed(text, index_base, delimiter):
    """``parse_edge_list`` as ``(n, edges, labels, duplicates)``."""
    g, duplicates = parse_edge_list(text, index_base=index_base, delimiter=delimiter,
                                    return_duplicates=True)
    return g.n, g.edges, g.labels, duplicates


# Tokens that Python's int() takes (signs, underscores, other digits, padding) and some it
# refuses, and ids past int64.
ODD_TOKENS = st.sampled_from(["+3", "1_0", "\u0663", "x", "-0", "07", "2_", "1.0", "-1",
                              str(2**63 - 1), str(2**63), str(2**64 + 5), str(-2**63 - 1),
                              "\u00a05", ""])
ODD_HEADERS = st.sampled_from(["", "x", "3 4", "0", "-2", "1_2", "+4", str(2**63), str(2**70)])
# Line breaks of str.splitlines, and separators that each delimiter splits on or keeps.
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c"])
SEPARATORS = {None: [" ", "\t", "  ", " \t"], ",": [",", " , ", ",,", "\t,", ", ", ", ,"]}


# Ids of the plain form: leading zeros and 18 digits, the longest the array reader converts;
# in a faulty text also 19 digits, which leave the text to the per-line reader.
PLAIN_IDS = ["007", "08", "9" * 18]
LONG_IDS = ["0" * 18 + "1", "1" + "0" * 18, str(2**63 - 1)]


def plain_edge_list(draw, index_base):
    """A text in the array reader's form: "\n" breaks, whitespace separators, %N and # lines
    at the top only; in one text of four, lines may hold one or three ids or 19 digits."""
    faulty = draw(st.integers(0, 3)) == 0
    ids = st.integers(index_base, index_base + 12)
    odd_ids = PLAIN_IDS + (LONG_IDS if faulty else [])
    lines = [draw(st.sampled_from(["#", "# 3 3", "%N " + str(draw(st.integers(8, 15))),
                                   "%N\t12 # c"])) for _ in range(draw(st.integers(0, 2)))]
    pad = st.sampled_from(["", "", " ", "\t"])
    for _ in range(draw(st.integers(0, 14))):
        count = draw(st.sampled_from([2] * 8 + [0] + ([1, 3] if faulty else [])))
        line = draw(pad)
        for k, i in enumerate(draw(st.lists(ids, min_size=count, max_size=count, unique=True))):
            line += (draw(st.sampled_from(SEPARATORS[None])) if k else "") + rarely(
                draw, odd_ids, st.just(str(i)))
        lines.append(line + draw(pad))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def edge_list_texts(draw):
    """``(text, index_base, delimiter)``: in the plain form half the time, else an edge list
    that may have odd tokens, headers, separators, breaks and token counts in some lines."""
    index_base = draw(st.sampled_from([0, 1]))
    if draw(st.booleans()):
        return plain_edge_list(draw, index_base), index_base, None
    delimiter = draw(st.sampled_from([None, ","]))
    odd = draw(st.booleans())

    def token():
        if odd and draw(st.integers(0, 3)) == 0:
            return draw(ODD_TOKENS)
        return str(draw(st.integers(index_base, index_base + 12)))

    def separator():
        return draw(st.sampled_from(SEPARATORS[delimiter] + (SEPARATORS[","] if odd else [])))

    kinds = ["pair"] * 8 + ["header", "comment", "blank"] + (["one", "three"] if odd else [])
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("pair", "one", "three"):
            line = token()
            for _ in range({"pair": 1, "one": 0, "three": 2}[kind]):
                line += separator() + token()
        elif kind == "header":
            count = draw(ODD_HEADERS) if odd and draw(st.booleans()) else str(draw(st.integers(8, 15)))
            line = "%N" + draw(st.sampled_from(["", " ", "\t"])) + count
        elif kind == "comment":
            line = "# " + token()
        else:
            line = draw(st.sampled_from(["", "  ", "\t"] + ([","] if odd else [])))
        if kind != "comment" and draw(st.integers(0, 3)) == 0:
            line += " # " + token()
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + line + draw(BREAKS))
    return "".join(lines), index_base, delimiter


@EQUIVALENCE_SETTINGS
@given(case=edge_list_texts())
def test_parse_matches_the_per_line_reference(case):
    text, index_base, delimiter = case
    expected = outcome(lambda: parse_edge_list_reference(text, index_base, delimiter))
    assert outcome(lambda: parsed(text, index_base, delimiter)) == expected


def test_parse_reference_corner_cases_agree():
    for text in ["%N 5\n%N 3\n0 2\n", "0 1\n%N 0\n", "0 9223372036854775808\n",
                 "%N 2\n0 18446744073709551616\n", "0 1 # a\x1c1 2\r\n\u0663 0\x0b",
                 "%N 99999999999999999999\n0 1\n", "1_0 +3\n3 0\n1 10\n", "0 , x\n",
                 "1,\t,2\n0, ,1\n", "2 ,1\n1 ,, 0\n", "", "%N 3\n \n\t\n",
                 "0 999999999999999999\n", "0 9223372036854775807\n", "007 08\n",
                 "\t1\t2 \n\n \t\n3  4\t\n", "1 2\n2 3", "0 1\r\n1 2\r\n", "0 1\n%N 4\n2 3\n",
                 "%N 5\n3 3\n", "1 2 3 4\n", "1\n2\n", "# c\r3 3\n1 2\n",
                 "%N 6\n0 1\n1 2\n\n2 3\n3 3\n", "0 1\n1 2\n2 0\n0 1\n%N 4\n3 0\n",
                 "0 1\n2 99999999999999999999\n3 3\n", "1 9223372036854775808\n",
                 "%N 4\n0 1\n1 18446744073709551616\n%N 3\n",
                 # Leading %N and # lines: malformed headers, breaks that hide an edge line,
                 # a non-ASCII comment; then an even token count on the wrong lines.
                 "%Nx\n0 1\n", "%N 0\n0 1\n", "%N 5\x0b0 0\n1 2\n", "# c\u20281 2\n2 3\n",
                 "# caf\u00e9\n%N 3\n0 1\n", "1 2 3\n4\n", "1\n2 3 4\n",
                 "0 1\n\ud800 2\n"]:  # a lone surrogate, which UTF-8 cannot encode
        for index_base in (0, 1):
            for delimiter in (None, ","):
                expected = outcome(lambda: parse_edge_list_reference(text, index_base, delimiter))
                assert outcome(lambda: parsed(text, index_base, delimiter)) == expected, text
    assert graph_module._read_plain("# caf\u00e9\n%N 3\n0 1\n", 0) is not None


def rarely(draw, odd, usual):
    """One of ``odd`` about one time in eight, else a draw from ``usual``."""
    return draw(st.sampled_from(odd)) if draw(st.integers(0, 7)) == 0 else draw(usual)


@EQUIVALENCE_SETTINGS
@given(data=st.data(), form=st.sampled_from(["as drawn", "canonical", "shuffled", "repeated"]))
def test_graph_and_from_edges_match_the_reference(data, form):
    draw = data.draw
    n = rarely(draw, [-1, 0, 2**62, 2**63], st.integers(1, 8))
    ids = [-1, -2, 9, 2**63 - 1, 2**63, 2**64, -2**63 - 1]
    pairs = [(rarely(draw, ids, st.integers(0, 7)), rarely(draw, ids, st.integers(0, 7)))
             for _ in range(draw(st.integers(0, 8)))]
    if form != "as drawn":  # mostly valid edge lists, so the checks past the first edge run
        pairs = sorted({(min(u, v), max(u, v)) for (u, v) in pairs})
    if form == "shuffled":
        pairs = draw(st.permutations(pairs))
    if form == "repeated" and pairs:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    labels = rarely(draw, [(0, 1)], st.none())
    for build, reference in ((Graph, graph_reference), (Graph.from_edges, from_edges_reference)):
        expected = outcome(lambda: reference(n, pairs, labels))
        got = outcome(lambda: (lambda g: (g.n, g.edges, g.labels))(build(n, pairs, labels)))
        assert got == expected, build


@pytest.mark.parametrize("n", [2**31, 2**31 + 1], ids=["keys", "lexsort"])
def test_from_edges_and_arcs_match_the_reference_at_the_key_bound(n, monkeypatch):
    # Up to 2**31 nodes the edges and arcs are sorted as int64 keys, above that by lexsort and
    # a stable argsort; both must give the loop references' arrays.  Only the arcs are read:
    # g.degrees would be an array of n entries.
    keys, routes = graph_module._sorted_keys, []

    def sorted_keys(*args):
        routes.append(keys(*args))
        return routes[-1]

    monkeypatch.setattr(graph_module, "_sorted_keys", sorted_keys)
    pairs = [(n - 1, 0), (5, n - 1), (0, 5), (n - 2, n - 1), (0, n - 1), (5, 0)]
    g = Graph.from_edges(n, pairs)
    assert (g.n, g.edges, g.labels) == from_edges_reference(n, pairs)
    src, dst = g.arcs
    arcs = sorted(g.edges + tuple((v, u) for (u, v) in g.edges))
    assert list(zip(src.tolist(), dst.tolist())) == arcs
    assert [r is not None for r in routes] == [n <= 2**31] * 2


@pytest.mark.parametrize("line, delimiter", [("{} {}\n", None), ("{} {} # c\n", None),
                                             ("{},{}\n", ",")], ids=["plain", "commented", "comma"])
def test_parse_memory_stays_below_64_mib(line, delimiter):
    # The plain text takes the array reader, the commented and comma ones the per-line reader.
    rng = np.random.default_rng(7)
    u, v = rng.integers(0, 100_000, (2, 200_000)).tolist()
    text = "%N 100000\n" + "".join(line.format(a, b) for a, b in zip(u, v) if a != b)
    assert (graph_module._read_plain(text, 0) is None) == (line != "{} {}\n")
    tracemalloc.start()
    try:
        parse_edge_list(text, delimiter=delimiter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def chains_with_trees(seed):
    """Three chains of 3, 5 and 8 edges between nodes 0 and 1, plus a tree hung off every node."""
    rng = np.random.default_rng(seed)
    edges = [(0, 2), (2, 3), (3, 1), (0, 1)]
    n = 4
    for length in (5, 8):
        nodes = [0, *range(n, n + length - 1), 1]
        edges += zip(nodes, nodes[1:])
        n += length - 1
    for k in range(n, 3 * n):
        edges.append((k, int(rng.integers(k))))
    return Graph.from_edges(3 * n, edges)


def kernel_chains(g):
    """The kernel's chains as node tuples (tail, inner nodes..., head), sorted."""
    k = g.kernel
    src, dst = (a[k.core_arcs] for a in g.arcs)
    chains = []
    for e in range(k.tail.size):
        arcs = np.flatnonzero(k.on == e)
        arcs = arcs[np.argsort(-k.to_end[arcs])]
        assert k.to_end[arcs].tolist() == list(range(k.length[e] - 1, -1, -1))
        assert src[arcs[0]] == k.branch[k.tail[e]] and dst[arcs[-1]] == k.branch[k.head[e]]
        chains.append((int(src[arcs[0]]), *dst[arcs].tolist()))
    for e, r in enumerate(k.reverse.tolist()):
        assert chains[r] == chains[e][::-1]
    assert np.all(np.diff(k.tail) >= 0)
    return sorted(chains)


def test_reduction_and_kernel_match_the_peel_and_walk_reference(corpus):
    extra = [("ring-chord-40", ring_with_chord(40)), ("triangle-path-30", triangle_with_path(30))]
    extra += [(f"chains-trees-s{seed}", chains_with_trees(seed)) for seed in range(4)]
    for name, g in corpus + extra:
        parent, core_degrees, chains = reduction_reference(g)
        red = g.reduction
        assert red.core_degrees.tolist() == core_degrees, name
        assert dict(zip(red.peeled.tolist(), red.parent.tolist())) == parent, name
        assert red.peeled.size == len(parent), name
        # Every node goes before its parent, in an earlier round.
        when = np.full(g.n, len(red.rounds))
        for r, (nodes, _) in enumerate(red.levels()):
            when[nodes] = r
        assert np.all(when[red.peeled] < when[red.parent]), name
        assert 2 * red.kernel_edges == len(chains) or g.num_edges == g.n, name
        if g.num_edges > g.n:
            assert kernel_chains(g) == chains, name


def test_reduction_of_a_tree_keeps_one_root():
    red = path_graph(5).reduction
    assert red.peeled.tolist() == [0, 4, 1, 3] and red.parent.tolist() == [1, 3, 2, 2]
    assert red.rounds.tolist() == [0, 2, 4] and red.core_degrees.tolist() == [0] * 5


def test_kernel_refuses_a_2_core_cycle():
    with pytest.raises(InvalidParamsError, match="no branch node"):
        triangle_with_path(4).kernel
