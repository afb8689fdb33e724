"""Generators and the rose-graph closed-form oracle."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nbwalk import (
    InvalidParamsError, RoseSpec, WalkKind, gen_ba, gen_er, gen_ws, loglog_slope,
    make_rose, rose4_oracle, scaling_table, validate,
)

from oracles import gen_er_reference


def test_rose_m2_shape():
    g = make_rose(RoseSpec(m=2))
    assert g.n == 7
    assert g.num_edges == 8
    degs = g.degrees
    assert degs[0] == 4
    assert np.all(degs[1:] == 2)


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


def test_oracle_rejects_small_m():
    with pytest.raises(InvalidParamsError):
        rose4_oracle(1)


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


def test_scaling_asymptotic_exponents():
    # The finite windows retain subleading terms; the limiting exponents
    # emerge at very large sizes and pin down the growth laws 1, 3/2, 2.
    expected = {WalkKind.TURW: 1.0, WalkKind.NBCRW: 1.5, WalkKind.MERW: 2.0}
    for kind, target in expected.items():
        rows = scaling_table(kind, [10**7, 10**8])
        (n0, t0), (n1, t1) = rows
        slope = math.log(t1 / t0) / math.log(n1 / n0)
        assert slope == pytest.approx(target, abs=1e-3), kind
