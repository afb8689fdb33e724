"""Hitting times: the pseudo-inverse route against the eigen-expansion, fundamental-matrix and absorbing oracles."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    Graph, IllConditionedError, InvalidParamsError, NotConnectedError, ReversibleWalk, RoseSpec,
    TransitionMatrix, WalkKind, eq26_audit, hitting_linear, hitting_spectral, hub_node, gen_ba,
    gen_ws, make_rose, potential, reversible_walk, stationary_closed, stationary_generic,
    transition, walk_hitting,
)
from nbwalk.hitting import _invert_lower

from conftest import complete_graph, cycle_graph, triangle_with_path
from oracles import absorbing_hitting, eigen_hitting, gth_hitting, hitting_merw_adjacency


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


def test_linear_matches_absorbing_reference(corpus):
    roses = [(f"rose-m{m}", make_rose(RoseSpec(m=m))) for m in range(2, 11)]
    for name, g in corpus + roses:
        for kind in WalkKind:
            p = transition(kind, g)
            ref = absorbing_hitting(p)
            gap = float(np.max(np.abs(hitting_linear(p).t - ref)))
            if kind is WalkKind.MERW:
                assert gap <= 1e-7 * (1.0 + ref.max()), (name, kind)
            else:
                assert gap <= 1e-9 * ref.max(), (name, kind)


def _count_linalg_calls(monkeypatch, *names):
    """Count the calls to each named ``np.linalg`` function from here on."""
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_linear_is_one_solve(monkeypatch):
    p = transition(WalkKind.NBCRW, make_rose(RoseSpec(m=4)))
    calls = _count_linalg_calls(monkeypatch, "solve", "lstsq")
    hitting_linear(p)
    assert calls["solve"] == 1
    stationary_generic(p)
    assert calls == {"solve": 2, "lstsq": 0}


@pytest.mark.parametrize("graph", [make_rose(RoseSpec(m=4)), gen_ba(150, 2, 3)],
                         ids=["rose4", "ba150"])
@pytest.mark.parametrize("kind", list(WalkKind))
def test_walk_hitting_is_one_cholesky_and_no_solve(monkeypatch, kind, graph):
    walk = reversible_walk(kind, graph)
    calls = _count_linalg_calls(monkeypatch, "cholesky", "solve", "eigh", "eig", "lstsq")
    walk_hitting(walk).t
    assert calls == {"cholesky": 1, "solve": 0, "eigh": 0, "eig": 0, "lstsq": 0}


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 300])
def test_invert_lower_is_the_inverse(n):
    b = np.random.default_rng(n).standard_normal((n, n))
    r = np.linalg.cholesky(b @ b.T / n + np.eye(n))
    inv = r.copy()
    _invert_lower(inv)
    assert np.max(np.abs(r @ inv - np.eye(n))) <= 1e-13
    assert not np.triu(inv, 1).any()


def test_pairwise_matrix_on_read_leaves_the_means_alone():
    walk = reversible_walk(WalkKind.NBCRW, gen_ba(150, 2, 3))
    means_first = walk_hitting(walk)
    t_partial, t_global = means_first.t_partial.copy(), means_first.t_global
    t_after = means_first.t
    matrix_first = walk_hitting(walk)
    t_before = matrix_first.t
    assert np.array_equal(matrix_first.t_partial, t_partial)
    assert matrix_first.t_global == t_global
    assert np.array_equal(means_first.t_partial, t_partial)
    assert np.array_equal(t_after, t_before)
    assert matrix_first.t is t_before and means_first.t is t_after


def _two_triangles():
    p = np.zeros((6, 6))
    p[:3, :3] = p[3:, 3:] = 0.5 * (np.ones((3, 3)) - np.eye(3))
    return p


LINEAR_ORACLES = pytest.mark.parametrize(
    "oracle", [hitting_linear, stationary_generic], ids=["hitting_linear", "stationary_generic"])


@pytest.mark.parametrize("p", [
    _two_triangles(),
    np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]),  # node 2 absorbs
], ids=["disjoint-triangles", "absorbing-state"])
def test_linear_refuses_reducible_chain(p):
    with pytest.raises(InvalidParamsError, match="reducible"):
        hitting_linear(TransitionMatrix(kind=WalkKind.TURW, p=p))
    with pytest.raises(InvalidParamsError, match="reducible"):
        stationary_generic(TransitionMatrix(kind=WalkKind.TURW, p=p))


@LINEAR_ORACLES
@pytest.mark.parametrize("p", [
    [[0.0, 2.0], [2.0, 0.0]],  # rows sum to 2: I - P + 1uᵀ is exactly singular
    [[0.0, 1.0], [1.0 + 1e-11, -1e-11]],  # a negative entry
    [[0.5, 0.5 + 1e-11], [1.0, 0.0]],  # a row sum off 1 by 1e-11
    [[np.nan, 1.0], [1.0, 0.0]],
], ids=["row-sum-2", "negative", "row-sum-off", "nan"])
def test_linear_refuses_non_stochastic_chain(oracle, p):
    with pytest.raises(InvalidParamsError, match="stochastic"):
        oracle(TransitionMatrix(kind=WalkKind.TURW, p=np.array(p)))


@LINEAR_ORACLES
def test_linear_accepts_row_sums_within_tolerance(oracle):
    oracle(TransitionMatrix(kind=WalkKind.TURW, p=np.array([[0.0, 1.0 + 5e-13], [1.0, 0.0]])))


@LINEAR_ORACLES
def test_linear_singular_solve_is_ill_conditioned(oracle, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    p = transition(WalkKind.TURW, make_rose(RoseSpec(m=2)))
    with pytest.raises(IllConditionedError, match="turw chain: .* numerically singular"):
        oracle(p)


def test_walk_hitting_cholesky_failure_is_ill_conditioned(monkeypatch):
    # No known input gets past the spread check to a failed factor; force one.
    def not_positive_definite(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(IllConditionedError, match=r"nbcrw walk: the weighted Laplacian is "
                       r"numerically singular \(its Cholesky factorisation failed\)") as exc:
        walk_hitting(reversible_walk(WalkKind.NBCRW, make_rose(RoseSpec(m=2))))
    assert exc.value.exit_code == 7


@pytest.mark.parametrize("eps, refused", [(1e-9, False), (1e-10, True)])
def test_strength_spread_past_the_error_bound_is_ill_conditioned(eps, refused):
    # Strengths 1 + eps, 1 + eps and 2 eps: max/min * 2^-53 is 5.6e-8 at
    # eps = 1e-9, under the 1e-7 bound, and 5.6e-7 at eps = 1e-10, over it.
    walk = ReversibleWalk(WalkKind.MERW, complete_graph(3), [1.0, 1.0, eps])
    for route in (lambda: walk_hitting(walk), lambda: hitting_linear(walk.transition())):
        if refused:
            with pytest.raises(IllConditionedError, match=r"merw (walk|chain): .* 2\^-53"):
                route()
        else:
            assert np.all(np.isfinite(route().t))


def test_walk_hitting_refuses_disconnected_support():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotConnectedError):
        ReversibleWalk(WalkKind.TURW, two_triangles, np.ones(6))
    with pytest.raises(NotConnectedError):
        walk_hitting(ReversibleWalk(WalkKind.TURW, two_triangles, np.ones(6)))


def _max_relative_gap(walk, t, targets):
    """Largest |T_ij - GTH_ij| / GTH_ij over i != j, for each target j of ``targets``."""
    gaps = []
    for j in targets:
        ref = gth_hitting(walk, j)
        off = np.arange(walk.s.size) != j
        gaps.append(np.max(np.abs(t[off, j] - ref[off]) / ref[off]))
    return max(gaps)


@pytest.mark.parametrize("kind", list(WalkKind))
def test_gth_oracle_matches_the_absorbing_solves(kind):
    g = make_rose(RoseSpec(m=3))
    walk = reversible_walk(kind, g)
    assert _max_relative_gap(walk, absorbing_hitting(transition(kind, g)), range(g.n)) <= 1e-12


@pytest.mark.parametrize("length", [5, 10, 15, 20])
def test_merw_hitting_on_a_pendant_path_is_within_the_spread_bound_of_gth(length):
    # MERW's strengths decay geometrically along the path; the entrywise
    # error of walk_hitting stays below (s_max / s_min) 2^-53, the bound the
    # ill-conditioned refusal reads, from 3.5e-14 at 5 nodes to 6.7e-8 at 20.
    walk = reversible_walk(WalkKind.MERW, triangle_with_path(length))
    bound = walk.s.max() / walk.s.min() * 2.0**-53
    assert _max_relative_gap(walk, walk_hitting(walk).t, (0, 2, length + 2)) <= bound


@pytest.mark.parametrize("length", [25, 30])
def test_merw_hitting_past_the_spread_bound_is_refused(length):
    with pytest.raises(IllConditionedError) as exc:
        walk_hitting(reversible_walk(WalkKind.MERW, triangle_with_path(length)))
    assert exc.value.exit_code == 7


GTH_GRAPHS = {"rose-m20": make_rose(RoseSpec(m=20)), "ba-120": gen_ba(120, 2, 1),
              "ws-60": gen_ws(60, 4, 0.1, 1)}


@pytest.mark.parametrize("kind", list(WalkKind))
@pytest.mark.parametrize("g", GTH_GRAPHS.values(), ids=GTH_GRAPHS.keys())
def test_walk_hitting_matches_gth_entrywise(g, kind):
    walk = reversible_walk(kind, g)
    targets = (0, int(np.argmax(walk.s)), int(np.argmin(walk.s)), g.n - 1)
    assert _max_relative_gap(walk, walk_hitting(walk).t, targets) <= 1e-12


def test_walk_hitting_matches_eigen_expansion(corpus):
    roses = [(f"rose-m{m}", make_rose(RoseSpec(m=m))) for m in range(2, 11)]
    for name, g in corpus + roses:
        for kind in WalkKind:
            x = potential(kind, g)
            ref = eigen_hitting(ReversibleWalk(kind, g, x))
            rep = walk_hitting(ReversibleWalk(kind, g, x))
            scale = 1.0 + ref.t.max()
            assert np.max(np.abs(rep.t - ref.t)) <= 1e-9 * scale, (name, kind)
            assert np.max(np.abs(rep.t_partial - ref.t_partial)) <= 1e-9 * scale, (name, kind)
            assert abs(rep.t_global - ref.t_global) <= 1e-9 * scale, (name, kind)


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
    hub = hub_node(g)
    assert hitting_spectral(WalkKind.TURW, g).t_partial[hub] == pytest.approx(10.0 / 3, abs=1e-9)
    assert hitting_spectral(WalkKind.NBCRW, g).t_partial[hub] == pytest.approx(38.0 / 15, abs=1e-9)


def test_hub_ordering_on_ba_instance():
    g = gen_ba(1000, 2, 1)
    t_hub = {kind: hitting_spectral(kind, g).t_partial[hub_node(g)] for kind in WalkKind}
    assert t_hub[WalkKind.TURW] > t_hub[WalkKind.NBCRW] > t_hub[WalkKind.MERW]


def test_prefactor_audit_on_triangle():
    g = complete_graph(3)
    audit = eq26_audit(hitting_spectral(WalkKind.NBCRW, g),
                       hitting_linear(transition(WalkKind.NBCRW, g)))
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
