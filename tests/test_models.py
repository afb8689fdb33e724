"""Generators and the rose-graph closed-form oracle."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nbwalk import (
    Graph, InvalidParamsError, RoseSpec, WalkKind, corrected_exponent, gen_ba, gen_er, gen_ws,
    loglog_slope, make_rose, rose4_oracle, scaling_table, validate,
)

from oracles import gen_ba_reference, gen_er_reference, gen_ws_reference


def test_rose_m2_shape():
    g = make_rose(RoseSpec(m=2))
    assert g.n == 7
    assert g.num_edges == 8
    degs = g.degrees
    assert degs[0] == 4
    assert np.all(degs[1:] == 2)


def test_rose4_petals_keep_their_labels():
    # Petal i: internal nodes 3i+1 and 3i+2 on the hub, peripheral node 3i+3.
    for m in range(2, 201):
        edges = []
        for i in range(m):
            a, b, p = 3 * i + 1, 3 * i + 2, 3 * i + 3
            edges += [(0, a), (0, b), (a, p), (b, p)]
        assert make_rose(RoseSpec(m=m)).edges == Graph.from_edges(3 * m + 1, edges).edges, m


@pytest.mark.parametrize("m, l", [(2, 6), (3, 8), (7, 6), (3, 20)])
def test_rose_petal_rule_for_longer_cycles(m, l):
    # Petal i on b .. b+l-2, b = 1 + i(l-1), runs 0, b, b+2, ..., b+l-2, b+1, 0:
    # the sequential cycle 0, b, b+1, ..., b+l-2, 0 relabelled within the petal.
    g = make_rose(RoseSpec(m=m, l=l))
    perm = np.arange(g.n)
    for b in range(1, g.n, l - 1):
        perm[b:b + l - 1] = [b, *range(b + 2, b + l - 1), b + 1]
    sequential = [(int(perm[u]), int(perm[v])) for b in range(1, g.n, l - 1)
                  for u, v in zip([0, *range(b, b + l - 1)], [*range(b, b + l - 1), 0])]
    assert g.edges == Graph.from_edges(g.n, sequential).edges
    hub_neighbours = [v for (u, v) in g.edges if u == 0]
    assert hub_neighbours == [b + d for b in range(1, g.n, l - 1) for d in (0, 1)]


def test_rose_long_cycles():
    g = make_rose(RoseSpec(m=3, l=20))
    assert g.n == 58
    assert g.degrees[0] == 6
    assert np.all(g.degrees[1:] == 2)
    assert validate(g).connected


def test_rose_rejects_odd_cycle_length():
    with pytest.raises(InvalidParamsError):
        RoseSpec(m=2, l=3)
    with pytest.raises(InvalidParamsError):
        RoseSpec(m=1)


def test_oracle_m2_reference_values():
    o = rose4_oracle(2)
    assert o.kappa1 == pytest.approx(3.0**0.25)
    assert o.pi[WalkKind.NBCRW][0] == pytest.approx(1.0 / (2.0 + math.sqrt(3.0)))
    assert o.t_hub[WalkKind.NBCRW] == pytest.approx(4.0 / 3 + math.sqrt(3.0))
    assert o.t_global[WalkKind.TURW] == pytest.approx(200.0 / 21)
    assert o.t_class[WalkKind.TURW]["H->P"] == pytest.approx(12.0)
    assert o.t_class[WalkKind.TURW]["I->P"] == pytest.approx(7.0)


def test_oracle_m10_merw_hub():
    o = rose4_oracle(10)
    assert o.pi[WalkKind.MERW][0] == pytest.approx(10.0 / 22)
    assert o.pi[WalkKind.MERW][0] == pytest.approx(0.454545, abs=1e-6)


def test_oracle_class_probabilities_sum_to_one():
    for m in [*range(2, 201), 1000]:
        o = rose4_oracle(m)
        for kind in WalkKind:
            hub, internal, peripheral = o.pi[kind]
            assert hub + 2 * m * internal + m * peripheral == pytest.approx(1.0, abs=1e-10)


def test_oracle_stationary_ordering_across_kinds():
    for m in range(2, 31):
        o = rose4_oracle(m)
        assert o.pi[WalkKind.MERW][0] > o.pi[WalkKind.NBCRW][0], m
        assert o.pi[WalkKind.MERW][1] == pytest.approx(o.pi[WalkKind.NBCRW][1], rel=1e-12), m
        assert o.pi[WalkKind.MERW][2] < o.pi[WalkKind.NBCRW][2], m


def test_oracle_hub_time_decomposition():
    for m in [*range(2, 201), 1000]:
        o = rose4_oracle(m)
        for kind in WalkKind:
            combo = (2 * o.t_class[kind]["I->H"] + o.t_class[kind]["P->H"]) / 3.0
            assert combo == pytest.approx(o.t_hub[kind], rel=1e-12)


def test_oracle_size_rewrites_agree():
    # Each closed form has an equivalent version parameterized by the node
    # count n = 3m + 1; both lines must evaluate identically.
    for m in (2, 3, 7, 25, 100):
        o = rose4_oracle(m)
        n = 3 * m + 1
        root = math.sqrt(6 * n - 15)
        t_hub_b = 4.0 / 3 + 2.0 * root / (n - 1)
        t_hub_m = 4.0 / 3 + 6.0 / (n - 1)
        t_turw = 20.0 * (n - 1) * (n - 2) / (9.0 * n)
        t_nbcrw = ((2 * n**2 + 30 * n - 192) / (9.0 * root)
                   + (268 + 20 * root) / (9.0 * n * root)
                   + (12 * n - 32) / 9.0)
        t_merw = (2 * n**3 + 30 * n**2 - 36 * n - 104) / (27.0 * n)
        assert o.t_hub[WalkKind.NBCRW] == pytest.approx(t_hub_b, rel=1e-12)
        assert o.t_hub[WalkKind.MERW] == pytest.approx(t_hub_m, rel=1e-12)
        assert o.t_global[WalkKind.TURW] == pytest.approx(t_turw, rel=1e-12)
        assert o.t_global[WalkKind.NBCRW] == pytest.approx(t_nbcrw, rel=1e-12)
        assert o.t_global[WalkKind.MERW] == pytest.approx(t_merw, rel=1e-12)


def test_edge_counts_above_the_cap_are_refused_before_any_loop():
    # MAX_DENSE_NODES² = 4·10⁸ edges: a rose has m·l, ER about p·n(n-1)/2.
    assert RoseSpec(m=10**8).m == 10**8
    assert RoseSpec(m=2, l=2 * 10**8).l == 2 * 10**8
    with pytest.raises(InvalidParamsError, match="rose edge count: 400000004 entries"):
        RoseSpec(m=10**8 + 1)
    with pytest.raises(InvalidParamsError, match="rose edge count"):
        RoseSpec(m=2, l=2 * 10**8 + 2)
    with pytest.raises(InvalidParamsError, match="ER expected edge count: 4499955000 entries"):
        gen_er(100_000, 0.9, 0)


def test_oracle_rejects_small_m():
    with pytest.raises(InvalidParamsError):
        rose4_oracle(1)


def test_oracle_is_finite_up_to_the_exact_integer_cap():
    # 2**53 is the largest petal count accepted; every closed form stays finite there.
    o = rose4_oracle(2**53)
    values = [o.kappa1, o.x_hub, o.x_int, o.x_per]
    for kind in WalkKind:
        values += [*o.pi[kind], o.t_hub[kind], o.t_global[kind], *o.t_class[kind].values()]
    assert all(math.isfinite(v) for v in values)
    with pytest.raises(InvalidParamsError):
        rose4_oracle(2**53 + 1)


def test_er_full_probability_gives_complete_graph():
    g = gen_er(10, 1.0, 123)
    assert g.num_edges == 45
    assert np.all(g.degrees == 9)


def test_er_determinism_and_param_validation():
    a = gen_er(30, 0.3, 9)
    b = gen_er(30, 0.3, 9)
    assert a.edges == b.edges
    assert gen_er(30, 0.3, 10).edges != a.edges
    with pytest.raises(InvalidParamsError):
        gen_er(30, 1.5, 0)


@pytest.mark.parametrize("n, p, seed", [
    (50, 0.1, 1), (1000, 0.01, 7), (999, 10 / 998, 3), (300, 0.5, 11),
    (40, 0.0, 3), (40, 1.0, 3), (2, 0.0, 0), (2, 1.0, 0), (2, 0.5, 5),
])
def test_er_draws_the_reference_stream(n, p, seed):
    # Row by row, one uniform per pair (i, j > i): the same PCG64 stream as
    # one draw over np.triu_indices(n, 1), so every seeded graph is unchanged.
    assert gen_er(n, p, seed).edges == gen_er_reference(n, p, seed).edges


def test_er_memory_is_linear():
    # np.triu_indices(5000, 1) alone would take 200 MB; the edge list of
    # about 25000 edges takes a few MB.
    tracemalloc.start()
    try:
        g = gen_er(5000, 10 / 4999, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 20000 < g.num_edges < 30000
    assert peak < 16_000_000, peak


def _grid(seed, count=200):
    """``count`` seeded (n, k, beta, draw_seed) and (n, m_attach, draw_seed) draws, n < 40."""
    rng = np.random.default_rng(seed)
    ws, ba = [], []
    for _ in range(count):
        n = int(rng.integers(3, 40))
        k = 2 * int(rng.integers(1, min(n - 1, 10) // 2 + 1))
        ws.append((n, k, min(1.0, 1.25 * float(rng.random())), int(rng.integers(2**32))))
        m_attach = int(rng.integers(1, 6))
        ba.append((int(rng.integers(m_attach + 2, 40)), m_attach, int(rng.integers(2**32))))
    return ws, ba


WS_GRID, BA_GRID = _grid(2018)


def test_ba_and_ws_draw_the_reference_streams_on_a_seeded_grid():
    for args in WS_GRID:
        assert gen_ws(*args).edges == gen_ws_reference(*args).edges, args
    for args in BA_GRID:
        assert gen_ba(*args).edges == gen_ba_reference(*args).edges, args


@pytest.mark.parametrize("model, args, salt", [
    ("ba", (100, 2), 8), ("ba", (300, 2), 7), ("ba", (520, 2), 1), ("ba", (1000, 2), 3),
    ("ws", (510, 6, 0.1), 2),
])
def test_benchmark_graphs_are_the_reference_graphs(model, args, salt):
    # benchmarks/workloads.py draws each graph at sub_seed(BASE_SEED = 0, salt)
    # and keeps the first connected non-tree draw.
    seed = int(np.random.SeedSequence([0, salt]).generate_state(1)[0])
    make, reference = {"ba": (gen_ba, gen_ba_reference), "ws": (gen_ws, gen_ws_reference)}[model]
    g = make(*args, seed)
    flags = validate(g)
    assert flags.connected and not flags.is_tree
    assert g.edges == reference(*args, seed).edges


@pytest.mark.parametrize("n, k, beta, seed", [
    (5, 4, 0.5, 0), (7, 6, 1.0, 0),  # complete graphs: every rewiring exhausts 100n + 1 draws
    (4, 2, 0.5, 8), (6, 4, 0.5, 4),  # a rewiring exhausts the cap and a later one reads the stream
])
def test_ws_draws_the_reference_stream_past_the_rewiring_cap(n, k, beta, seed):
    assert gen_ws(n, k, beta, seed).edges == gen_ws_reference(n, k, beta, seed).edges


def test_ba_edge_count_and_connectivity():
    g = gen_ba(100, 2, 1)
    assert g.num_edges == 3 + 2 * 97
    assert validate(g).connected
    assert gen_ba(100, 2, 1).edges == g.edges


def test_ba_param_validation():
    with pytest.raises(InvalidParamsError):
        gen_ba(3, 2, 0)
    with pytest.raises(InvalidParamsError):
        gen_ba(10, 0, 0)


def test_ws_ring_without_rewiring():
    g = gen_ws(20, 4, 0.0, 5)
    assert g.num_edges == 40
    assert np.all(g.degrees == 4)
    assert (0, 1) in g.edges and (0, 2) in g.edges


def test_ws_rewiring_keeps_simple_graph():
    g = gen_ws(40, 4, 0.5, 8)
    assert g.num_edges == 80
    assert np.all(np.diag(g.adjacency) == 0)
    assert gen_ws(40, 4, 0.5, 8).edges == g.edges


def test_ws_param_validation():
    with pytest.raises(InvalidParamsError):
        gen_ws(10, 3, 0.1, 0)
    with pytest.raises(InvalidParamsError):
        gen_ws(10, 4, 1.5, 0)


def test_scaling_table_rows():
    rows = scaling_table(WalkKind.TURW, [2, 10])
    assert rows[0][0] == 7
    assert rows[1][0] == 31
    assert rows[0][1] == pytest.approx(200.0 / 21)


def test_scaling_slope_turw_window():
    ms = np.unique(np.geomspace(10, 1000, 40).astype(int)).tolist()
    slope = loglog_slope(scaling_table(WalkKind.TURW, ms))
    assert slope == pytest.approx(1.0, abs=0.02)


def test_corrected_exponent_needs_six_distinct_sizes():
    # Six parameters (a, alpha, b_1..b_4): five sizes leave the fit underdetermined.
    ms = np.unique(np.geomspace(10, 1000, 6).astype(int)).tolist()
    rows = scaling_table(WalkKind.TURW, ms)
    assert len(rows) == 6
    assert corrected_exponent(rows) == pytest.approx(1.0, abs=1e-5)
    for short in (rows[:5], rows[:5] + rows[:1]):
        with pytest.raises(InvalidParamsError, match="5 distinct sizes"):
            corrected_exponent(short)


def test_scaling_asymptotic_exponents():
    # The finite windows retain subleading terms; the limiting exponents
    # emerge at very large sizes and pin down the growth laws 1, 3/2, 2.
    expected = {WalkKind.TURW: 1.0, WalkKind.NBCRW: 1.5, WalkKind.MERW: 2.0}
    for kind, target in expected.items():
        rows = scaling_table(kind, [10**7, 10**8])
        (n0, t0), (n1, t1) = rows
        slope = math.log(t1 / t0) / math.log(n1 / n0)
        assert slope == pytest.approx(target, abs=1e-3), kind
