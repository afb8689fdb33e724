"""Transition matrices, stationary distributions, detailed balance, and IPR."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    Graph, InvalidParamsError, NotConnectedError, RoseSpec, TreeGraphError, WalkKind,
    ZeroDenominatorError, detailed_balance_residual, gen_ba, ipr, make_rose, nb_centrality,
    stationary_closed, stationary_generic, transition,
)

from conftest import complete_graph, cycle_graph, star_graph, star_with_chord
from oracles import stationary_nbcrw_formula


def test_turw_triangle():
    p = transition(WalkKind.TURW, complete_graph(3)).p
    off = p[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)
    assert np.allclose(np.diag(p), 0.0)


def test_turw_star_hub_row():
    p = transition(WalkKind.TURW, star_graph(3)).p
    assert np.allclose(p[0], [0.0, 1.0 / 3, 1.0 / 3, 1.0 / 3])


def test_turw_rose_hub_row():
    g = make_rose(RoseSpec(m=2))
    p = transition(WalkKind.TURW, g).p
    internal = [1, 2, 4, 5]
    assert np.allclose(p[0, internal], 0.25)
    assert p[0].sum() == pytest.approx(1.0)


def test_turw_rejects_isolated_node():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(NotConnectedError):
        transition(WalkKind.TURW, g)


def test_merw_equals_turw_on_regular_graphs():
    for g in (complete_graph(4), cycle_graph(6)):
        gap = transition(WalkKind.MERW, g).p - transition(WalkKind.TURW, g).p
        assert np.max(np.abs(gap)) <= 1e-9


def test_merw_rose_internal_row():
    g = make_rose(RoseSpec(m=2))
    p = transition(WalkKind.MERW, g).p
    assert p[1, 0] == pytest.approx(2.0 / 3, abs=1e-10)
    assert p[1, 3] == pytest.approx(1.0 / 3, abs=1e-10)


def test_merw_star_leaf_row():
    p = transition(WalkKind.MERW, star_graph(3)).p
    assert np.allclose(p[1], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_merw_rejects_disconnected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(NotConnectedError):
        transition(WalkKind.MERW, g)


def test_nbcrw_equals_turw_on_regular_graphs():
    for g in (complete_graph(5), cycle_graph(6)):
        gap = transition(WalkKind.NBCRW, g).p - transition(WalkKind.TURW, g).p
        assert np.max(np.abs(gap)) <= 1e-9


def test_nbcrw_rose_internal_and_peripheral_rows():
    g = make_rose(RoseSpec(m=2))
    p = transition(WalkKind.NBCRW, g).p
    assert p[1, 0] == pytest.approx(2.0 / (2.0 + np.sqrt(3.0)), abs=1e-10)
    assert np.allclose(p[3, [1, 2]], 0.5, atol=1e-10)


def test_nbcrw_rejects_tree():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TreeGraphError):
        transition(WalkKind.NBCRW, g)


def test_nbcrw_scale_invariance():
    g = star_with_chord(8)
    x = nb_centrality(g).x
    a = g.adjacency
    reference = a * x[None, :] / (a @ x)[:, None]
    for c in (1e-6, 1.0, 1e6):
        scaled = c * x
        p = a * scaled[None, :] / (a @ scaled)[:, None]
        assert np.max(np.abs(p - reference)) <= 1e-12


def test_zero_denominator_error_reports_node():
    err = ZeroDenominatorError(4)
    assert err.node == 4
    assert err.code == "zero_denominator"
    assert err.exit_code == 4


def test_row_stochastic_on_corpus(corpus):
    for name, g in corpus:
        for kind in WalkKind:
            p = transition(kind, g).p
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12, (name, kind)
            assert np.all(p >= 0), (name, kind)
            assert np.all((p > 0) <= (g.adjacency > 0)), (name, kind)


def test_stationary_turw_rose():
    g = make_rose(RoseSpec(m=2))
    pi = stationary_closed(WalkKind.TURW, g).pi
    assert pi[0] == pytest.approx(0.25)
    assert pi[1] == pytest.approx(1.0 / 8)
    assert pi[3] == pytest.approx(1.0 / 8)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_nbcrw_rose():
    g = make_rose(RoseSpec(m=2))
    pi = stationary_closed(WalkKind.NBCRW, g).pi
    assert pi[0] == pytest.approx(1.0 / (2.0 + np.sqrt(3.0)), abs=1e-10)
    assert pi[0] == pytest.approx(0.267949, abs=1e-6)
    assert pi[1] == pytest.approx(1.0 / 8, abs=1e-10)
    assert pi[3] == pytest.approx((2.0 * np.sqrt(3.0) - 3.0) / 4.0, abs=1e-10)
    assert pi[3] == pytest.approx(0.116025, abs=1e-6)
    assert pi.sum() == pytest.approx(1.0, abs=1e-10)


def test_stationary_merw_rose():
    g = make_rose(RoseSpec(m=2))
    pi = stationary_closed(WalkKind.MERW, g).pi
    assert pi[0] == pytest.approx(1.0 / 3, abs=1e-10)
    assert pi[1] == pytest.approx(1.0 / 8, abs=1e-10)
    assert pi[3] == pytest.approx(1.0 / 12, abs=1e-10)


def test_stationary_generic_uniform_on_complete():
    pi = stationary_generic(transition(WalkKind.TURW, complete_graph(6))).pi
    assert np.allclose(pi, 1.0 / 6, atol=1e-12)


def test_stationary_generic_matches_closed_rose():
    g = make_rose(RoseSpec(m=3))
    closed = stationary_closed(WalkKind.NBCRW, g).pi
    generic = stationary_generic(transition(WalkKind.NBCRW, g)).pi
    assert np.max(np.abs(closed - generic)) <= 1e-10
    assert generic.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_generic_refuses_a_large_residual(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(InvalidParamsError, match="stationary solve residual 1.250e-06 too large"):
        stationary_generic(transition(WalkKind.TURW, make_rose(RoseSpec(m=2))))


def test_stationary_merw_star():
    pi = stationary_closed(WalkKind.MERW, star_graph(4)).pi
    assert pi[0] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(pi[1:], 1.0 / 8, atol=1e-10)


def test_stationary_method_provenance():
    g = complete_graph(4)
    assert stationary_closed(WalkKind.TURW, g).method == "closed_form"
    assert stationary_generic(transition(WalkKind.TURW, g)).method == "linear_solve"


def test_stationary_fixed_point_residual(corpus):
    for name, g in corpus[:12]:
        for kind in WalkKind:
            p = transition(kind, g)
            pi = stationary_closed(kind, g).pi
            assert np.max(np.abs(pi @ p.p - pi)) <= 1e-9, (name, kind)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12), (name, kind)


def test_detailed_balance_all_kinds():
    g = star_with_chord(9)
    for kind, bound in ((WalkKind.TURW, 1e-12), (WalkKind.MERW, 1e-10), (WalkKind.NBCRW, 1e-10)):
        p = transition(kind, g)
        pi = stationary_closed(kind, g).pi
        assert detailed_balance_residual(pi, p) <= bound, kind


def test_ipr_uniform_and_point_mass():
    assert ipr(np.full(100, 0.01)) == pytest.approx(0.01)
    point = np.zeros(10)
    point[3] = 1.0
    assert ipr(point) == pytest.approx(1.0)


def test_ipr_localization_ordering_on_ba_instance():
    g = gen_ba(1000, 2, 1)
    s_nbcrw = ipr(stationary_closed(WalkKind.NBCRW, g).pi)
    s_merw = ipr(stationary_closed(WalkKind.MERW, g).pi)
    assert s_nbcrw < s_merw


def test_stationary_nbcrw_matches_paper_formula(corpus):
    for name, g in corpus:
        core = stationary_closed(WalkKind.NBCRW, g).pi
        paper = stationary_nbcrw_formula(g).pi
        assert np.max(np.abs(core - paper) / paper) <= 1e-9, name
