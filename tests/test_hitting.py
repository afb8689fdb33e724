"""Hitting times: spectral formulas against the absorbing linear-system oracle."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    RoseSpec, WalkKind, eq26_audit, hitting_linear, hitting_merw_adjacency, hitting_spectral,
    hub_node, hub_report, make_rose, stationary_closed, transition,
)

from conftest import complete_graph, cycle_graph, star_with_chord


def test_linear_complete_graph():
    for n in (3, 5, 8):
        rep = hitting_linear(transition(WalkKind.TURW, complete_graph(n)))
        off = rep.t[~np.eye(n, dtype=bool)]
        assert np.allclose(off, n - 1.0, atol=1e-10)
        assert rep.method == "linear_solve"


def test_linear_rose_turw_class_times():
    g = make_rose(RoseSpec(m=2))
    rep = hitting_linear(transition(WalkKind.TURW, g))
    assert rep.t[1, 0] == pytest.approx(3.0, abs=1e-10)
    assert rep.t[3, 0] == pytest.approx(4.0, abs=1e-10)


def test_linear_rose_nbcrw_internal_to_hub():
    g = make_rose(RoseSpec(m=2))
    rep = hitting_linear(transition(WalkKind.NBCRW, g))
    assert rep.t[1, 0] == pytest.approx(1.0 + np.sqrt(3.0), abs=1e-9)
    assert rep.t[1, 0] == pytest.approx(2.732051, abs=1e-6)


def test_spectral_turw_rose():
    g = make_rose(RoseSpec(m=2))
    rep = hitting_spectral(WalkKind.TURW, g)
    assert rep.t_partial[0] == pytest.approx(10.0 / 3, abs=1e-9)
    assert rep.t_global == pytest.approx(200.0 / 21, abs=1e-9)


def test_spectral_turw_triangle():
    rep = hitting_spectral(WalkKind.TURW, complete_graph(3))
    assert rep.t_global == pytest.approx(2.0, abs=1e-10)


def test_spectral_merw_rose():
    g = make_rose(RoseSpec(m=2))
    rep = hitting_spectral(WalkKind.MERW, g)
    assert rep.t_partial[0] == pytest.approx(7.0 / 3, abs=1e-9)
    assert rep.t_global == pytest.approx(200.0 / 21, abs=1e-9)


def test_spectral_merw_triangle_matrix():
    rep = hitting_spectral(WalkKind.MERW, complete_graph(3))
    off = rep.t[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0, atol=1e-10)


def test_spectral_nbcrw_rose():
    g = make_rose(RoseSpec(m=2))
    rep = hitting_spectral(WalkKind.NBCRW, g)
    assert rep.t_partial[0] == pytest.approx(4.0 / 3 + np.sqrt(3.0), abs=1e-9)
    assert rep.t_partial[0] == pytest.approx(3.065384, abs=1e-6)
    expected_global = 40.0 / (7.0 * np.sqrt(3.0)) + 128.0 / 21
    assert rep.t_global == pytest.approx(expected_global, abs=1e-9)


def test_spectral_nbcrw_cycle_collapses_to_turw():
    g = cycle_graph(4)
    nb = hitting_spectral(WalkKind.NBCRW, g)
    tu = hitting_spectral(WalkKind.TURW, g)
    assert np.max(np.abs(nb.t - tu.t)) <= 1e-9
    assert nb.t_global == pytest.approx(tu.t_global, abs=1e-9)


def test_spectral_nbcrw_uniform_triangle_global():
    # Uniform centrality weights reduce the weighted formula to the plain one.
    rep = hitting_spectral(WalkKind.NBCRW, complete_graph(3))
    assert rep.t_global == pytest.approx(2.0, abs=1e-10)


def test_diagonal_zero_and_positive_off_diagonal(corpus):
    for name, g in corpus[:8]:
        for kind in WalkKind:
            rep = hitting_spectral(kind, g)
            assert np.allclose(np.diag(rep.t), 0.0, atol=1e-12), (name, kind)
            off = rep.t[~np.eye(g.n, dtype=bool)]
            assert np.all(off > 0), (name, kind)


def test_partial_and_global_consistency(corpus):
    for name, g in corpus[:10]:
        for kind in WalkKind:
            rep = hitting_spectral(kind, g)
            from_matrix = rep.t.sum(axis=0) / (g.n - 1.0)
            assert np.max(np.abs(from_matrix - rep.t_partial)) <= 1e-8, (name, kind)
            assert rep.t_global == pytest.approx(float(rep.t_partial.mean()), abs=1e-8), (name, kind)


def test_kemeny_row_invariance(corpus):
    for name, g in corpus[:10]:
        for kind in WalkKind:
            rep = hitting_spectral(kind, g)
            pi = stationary_closed(kind, g).pi
            rows = rep.t @ pi
            assert rows.max() - rows.min() <= 1e-8 * (1.0 + rows.max()), (name, kind)


def test_spectral_vs_linear_on_rose_family():
    for m in (2, 3, 4):
        g = make_rose(RoseSpec(m=m))
        for kind in WalkKind:
            spectral = hitting_spectral(kind, g)
            linear = hitting_linear(transition(kind, g))
            gap = np.max(np.abs(spectral.t - linear.t))
            assert gap <= 1e-7 * (1.0 + linear.t.max()), (m, kind)


def test_hub_node_tie_breaks_to_smallest_label():
    assert hub_node(complete_graph(5)) == 0
    assert hub_node(make_rose(RoseSpec(m=3))) == 0


def test_hub_report_rose_m5():
    g = make_rose(RoseSpec(m=5))
    assert hub_report(g, WalkKind.TURW)["t_hub"] == pytest.approx(10.0 / 3, abs=1e-9)
    assert hub_report(g, WalkKind.NBCRW)["t_hub"] == pytest.approx(38.0 / 15, abs=1e-9)


def test_hub_ordering_on_ba_instance():
    from nbwalk import gen_ba

    g = gen_ba(1000, 2, 1)
    t_hub = {kind: hub_report(g, kind)["t_hub"] for kind in WalkKind}
    assert t_hub[WalkKind.TURW] > t_hub[WalkKind.NBCRW] > t_hub[WalkKind.MERW]


def test_prefactor_audit_on_triangle():
    audit = eq26_audit(complete_graph(3))
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(audit["t_verbatim"][off], 1.0, atol=1e-10)
    assert np.allclose(audit["t_consistent"][off], 2.0, atol=1e-10)
    assert audit["max_gap_consistent_vs_linear"] <= 1e-9
    assert audit["max_gap_verbatim_vs_linear"] == pytest.approx(1.0, abs=1e-9)
    assert "prefactor" in audit["note"]


def test_spectral_merw_matches_adjacency_spectrum_oracle(corpus):
    for name, g in corpus:
        core = hitting_spectral(WalkKind.MERW, g)
        oracle = hitting_merw_adjacency(g)
        scale = 1.0 + oracle.t.max()
        assert np.max(np.abs(core.t - oracle.t)) <= 1e-10 * scale, name
        assert np.max(np.abs(core.t_partial - oracle.t_partial)) <= 1e-10 * scale, name
