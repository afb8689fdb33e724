"""Non-backtracking matrix, its reduced form, and node centralities."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nbwalk import (
    ConvergenceFailureError, Graph, InvalidParamsError, NotConnectedError, ReversibleWalk,
    RoseSpec, TreeGraphError, WalkKind, build_m_matrix, build_nb_matrix, eigenvector_centrality,
    gen_ba, gen_er, make_rose, nb_centrality, nbcentrality, reversible_walk, rose4_oracle,
    verify_b_vs_m,
)
from nbwalk import graph, spectral
from nbwalk.graph import MAX_DENSE_NODES, dense_on_arcs
from nbwalk.nbcentrality import _adj_matvec, _kappa_of, _m_operator

from conftest import (
    complete_graph, cycle_graph, dense_pair, k_with_path, path_graph, ring_with_chord,
    star_with_chord, triangle_with_path, twin_k4,
)


def theta_kappa(lengths):
    """NB leading eigenvalue of a theta graph with path lengths l_j.

    It is the root in (1, 2) of sum_j 1 / (1 + kappa^l_j) = 1, found by bisection.
    kappa^l is taken as exp(l log kappa), and each term as exp(-s) / (1 + exp(-s))
    with s = l log kappa >= 0, so no length overflows.
    """
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        decays = [math.exp(-l * math.log(mid)) for l in lengths]
        if sum(d / (1.0 + d) for d in decays) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_nb_matrix_single_edge_is_zero():
    b = build_nb_matrix(Graph.from_edges(2, [(0, 1)]))
    assert b.shape == (2, 2)
    assert not np.any(b)


def test_nb_matrix_refuses_a_graph_without_edges():
    with pytest.raises(InvalidParamsError, match="graph has no edges"):
        build_nb_matrix(Graph(1, []))


def test_nb_matrix_triangle():
    b = build_nb_matrix(complete_graph(3))
    assert b.shape == (6, 6)
    assert np.all(b.sum(axis=1) == 1)
    assert dense_pair(b).value == pytest.approx(1.0, abs=1e-10)


def test_nb_matrix_rose():
    b = build_nb_matrix(make_rose(RoseSpec(m=2)))
    # 2E = 16 directed edges: 4 edges per petal, 2 petals.
    assert b.shape == (16, 16)
    assert dense_pair(b).value == pytest.approx(3.0**0.25, abs=1e-9)


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
    assert dense_pair(m).value == pytest.approx(1.0, abs=1e-10)


def test_m_matrix_complete_four():
    pair = dense_pair(build_m_matrix(complete_graph(4)))
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
    # K5's kernel is itself, 2E_k = 20 > N = 5, so it stays on power iteration.
    power = nb_centrality(complete_graph(5))
    assert power.path == "power" and power.iterations > 0
    unicyclic = nb_centrality(cycle_graph(6))
    assert (unicyclic.path, unicyclic.iterations, unicyclic.kappa) == ("unicyclic", 0, 1.0)
    # A long ring with one chord has its leading eigenvalue close to the rest
    # of M's spectrum, so power iteration on M exhausts its 100 steps per
    # dimension there (test_spectral covers that fallback on M itself).  Its
    # kernel is two branch nodes and three chains, 2E_k = 6 <= N.  Clusters
    # of equal kappa reach the fallback on either route (test_dense_fallback_through_nb_centrality).
    g = ring_with_chord(240)
    kernel = nb_centrality(g)
    assert kernel.path == "kernel" and 0 < kernel.iterations < 100 * 2 * g.n
    assert kernel.kappa == pytest.approx(theta_kappa((120, 120, 1)), abs=1e-12)


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


def test_eigenvector_centrality_memory_is_linear_in_edges(ba20000, monkeypatch):
    # The dense adjacency of BA(20000, 2) would take 3.2 GB and its eigh far
    # more; Lanczos keeps a basis of about 50 vectors of length N.
    def no_adjacency(self):
        raise AssertionError("eigenvector_centrality read the dense adjacency")

    monkeypatch.setattr(Graph, "adjacency", property(no_adjacency))
    pair, peak = _traced_peak(lambda: eigenvector_centrality(ba20000))
    assert pair.path == "lanczos"
    assert pair.residual <= 1e-12 * pair.value
    assert np.all(pair.vector > 0)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("length", [5, 40, 80])
def test_eigenvector_centrality_is_exact_on_pendant_trees(length):
    # Lanczos is accurate only in absolute terms: on the 80-node path it put
    # 9 entries below zero, the smallest -8.6e-15.  The ratio recursion over
    # the peel leaves every tree node with a relative residual of rounding.
    g = triangle_with_path(length)
    pair = eigenvector_centrality(g)
    psi = pair.vector
    assert np.all(psi > 0)
    tree = g.reduction.peeled
    assert tree.size == length
    relative = np.abs(_adj_matvec(g, psi) - pair.value * psi)[tree] / psi[tree]
    assert np.max(relative) <= 1e-12
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
    assert pair.residual <= 1e-12 * pair.value


@pytest.mark.parametrize("length", [5, 15, 30])
def test_eigenvector_centrality_keeps_lanczos_where_the_tree_holds_the_mass(length):
    # A 100-leaf star at the end of a pendant path holds psi's mass, and psi
    # falls by about lambda = 10 per step toward the triangle.  The ratio
    # recursion would cancel every digit at the star's hub, so the path and
    # the hub keep their Lanczos entries; the leaves still take r psi_hub.
    edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, length + 2)]
    hub = length + 2
    g = Graph.from_edges(hub + 101, edges + [(hub, hub + 1 + j) for j in range(100)])
    pair = eigenvector_centrality(g)
    reference = np.abs(np.linalg.eigh(g.adjacency)[1][:, -1])
    assert np.max(np.abs(pair.vector - reference)) <= 1e-14
    assert pair.residual <= 1e-12 * pair.value
    leaves = pair.vector[hub + 1:]
    assert np.max(np.abs(leaves * pair.value / pair.vector[hub] - 1.0)) <= 1e-14


def test_m_matrix_is_the_only_large_array_it_makes():
    # M of BA(2000, 2) takes 128 MB.  A scattered into M and the I - D and I
    # diagonals set by index need no other N×N array; M put together from
    # its blocks by hstack and vstack peaked at 2.5 times its size.
    g = gen_ba(2000, 2, 1)
    n = g.n
    g.arcs, g.degrees  # computed once per graph, before the trace
    m, peak = _traced_peak(lambda: build_m_matrix(g))
    assert peak < 1.5 * m.nbytes
    assert np.array_equal(m[:n, :n], g.adjacency)
    assert np.array_equal(m[:n, n:], np.eye(n) - np.diag(g.degrees))
    assert np.array_equal(m[n:, :n], np.eye(n))
    assert not np.any(m[n:, n:])


def test_dense_matrices_are_refused_above_the_cap():
    # Every dense array is refused by its one builder, dense_on_arcs, before
    # any allocation, so nothing large is made here.
    big = cycle_graph(MAX_DENSE_NODES + 1)
    refusals = [
        (lambda: dense_on_arcs(20001, [], [], 1.0, "an array"), "an array", 20001),
        (lambda: big.adjacency, "the adjacency matrix", 20001),
        (lambda: reversible_walk(WalkKind.TURW, big).transition(), "the turw walk", 20001),
        (lambda: ReversibleWalk(WalkKind.NBCRW, big, np.ones(big.n)).laplacian(),
         "the nbcrw walk", 20001),
        (lambda: build_m_matrix(cycle_graph(MAX_DENSE_NODES // 2 + 1)),
         "the reduced non-backtracking matrix M", 20002),
    ]
    for build, what, n in refusals:
        with pytest.raises(InvalidParamsError) as exc:
            build()
        assert str(exc.value) == (
            f"{what}: a dense {n}x{n} array is above the cap of 20000; the O(E) routes are "
            "centrality, and stationary (without --check) or simulate with --walk turw|nbcrw")


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


def test_reduced_residual_gate(monkeypatch):
    # One entry of the leading vector off by 1e-6 of itself leaves a reduced
    # residual far above the gate of 1e3 * TOL * max(1, kappa).
    exact = nbcentrality.leading_eig

    def perturbed(*args, **kwargs):
        pair = exact(*args, **kwargs)
        pair.vector[0] *= 1.0 + 1e-6
        return pair

    monkeypatch.setattr(nbcentrality, "leading_eig", perturbed)
    with pytest.raises(ConvergenceFailureError,
                       match=r"reduced eigen-equation residual \S+ exceeds 1\.\de-09") as exc:
        nb_centrality(make_rose(RoseSpec(m=3)))
    assert exc.value.exit_code == 5


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


def cycle_with_trees(cycle, n, seed):
    """A c-node cycle with n - c nodes in trees hung off it: connected, with E == N."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(k, int(rng.integers(k))) for k in range(cycle, n)]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 20, 60, 80, 150, 300])
def test_rose_kappa_is_the_quadratic_root(m):
    # The quadratic-identity root is second-order in the vector's error, so
    # the root of the returned x sits within a few ulps of the closed form
    # (2m - 1)^(1/4), although kappa itself comes from the kernel's Newton root.
    g = make_rose(RoseSpec(m=m))
    oracle = rose4_oracle(m).kappa1
    assert abs(_kappa_of(g, nb_centrality(g).x) - oracle) <= 1e-13 * oracle


def test_rose_kappa_is_the_newton_root():
    # The kernel route reports the Newton root z = e^t itself, which no
    # cancellation touches: within 1e-15 of (2m - 1)^(1/4) on every rose up to m = 300.
    for m in range(2, 301):
        oracle = rose4_oracle(m).kappa1
        assert abs(nb_centrality(make_rose(RoseSpec(m=m))).kappa - oracle) <= 1e-15 * oracle, m


def test_verify_b_vs_m_gap_on_roses_and_small_corpus(small_corpus):
    roses = [(f"rose-m{m}", make_rose(RoseSpec(m=m))) for m in range(2, 8)]
    for name, g in roses + small_corpus:
        assert verify_b_vs_m(g)["max_gap"] <= 1e-12, name


@pytest.mark.parametrize("g", [
    complete_graph(3), cycle_graph(10), star_with_chord(8), cycle_with_trees(7, 60, 1),
    cycle_with_trees(30, 300, 2),
], ids=["triangle", "cycle10", "star-chord8", "cycle7-trees60", "cycle30-trees300"])
def test_unicyclic_kappa_is_exactly_one(g):
    # E == N makes kappa = 1 a double root; x = 1 gives it with no rounding,
    # on the pendant trees too, so the graph is never peeled.
    nc = nb_centrality(g)
    assert nc.kappa == 1.0 and nc.path == "unicyclic"
    assert "reduction" not in vars(g)
    assert np.allclose(nc.x, 1.0 / np.sqrt(2 * g.n), rtol=1e-15, atol=0)
    if 2 * g.num_edges <= 400:
        assert verify_b_vs_m(g)["max_gap"] <= 1e-12


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


def test_centrality_below_rounding_is_wiped_to_zero():
    # K16 joined to K4 by a 30-edge path: every node is in the 2-core and the
    # kernel has 2E_k = 2 * (120 + 6 + 1) = 254 > N = 49 arcs, so the power
    # route runs and nothing is peeled.  x falls by about 14 a step along the
    # path, below 1e-14 of its largest 13 steps in, and the wipe leaves zeros
    # from there on, at 2-core nodes only.
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    edges += [(i, i + 1) for i in range(15, 45)]
    edges += [(i, j) for i in range(45, 49) for j in range(i + 1, 49)]
    g = Graph.from_edges(49, edges)
    assert g.reduction.peeled.size == 0 and 2 * g.reduction.kernel_edges > g.n
    nc = nb_centrality(g)
    assert nc.path == "power"
    assert np.all(nc.x >= 0) and np.all(nc.y >= 0)
    zeros = np.flatnonzero(nc.x == 0)
    assert zeros.size > 0 and np.all(g.reduction.core_degrees[zeros] > 0)
    assert np.all(nc.x[:16] > 0)


def test_pendant_tree_is_the_same_closed_form_on_both_routes():
    # K16 with a 120-node pendant path takes the power route (N = 136 <
    # 2E_k = 240), with a 240-node one the kernel route (N = 256 >= 240).
    # Both have the 2-core K16 and kappa = 14, and x_c = x_parent / kappa
    # down either path, so x relative to the anchor node 15 agrees on the
    # core and on the 120 shared path nodes, and stays positive to 14^-120.
    power, kernel = nb_centrality(k_with_path(16, 120)), nb_centrality(k_with_path(16, 240))
    assert (power.path, kernel.path) == ("power", "kernel")
    assert kernel.kappa == pytest.approx(14.0, rel=1e-15)
    assert power.kappa == pytest.approx(kernel.kappa, rel=1e-15)
    assert np.all(power.x > 0) and np.all(kernel.x > 0)
    shared = slice(0, 136)
    a, b = power.x[shared] / power.x[15], kernel.x[shared] / kernel.x[15]
    assert np.max(np.abs(a / b - 1.0)) <= 1e-13


def k4_path_k33(length):
    """K4 on nodes 0-3 and K_{3,3} on the last six nodes, joined by a path of ``length`` edges."""
    n = length + 9
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k33 = [(n - 6 + i, n - 3 + j) for i in range(3) for j in range(3)]
    path = [(i, i + 1) for i in range(3, length + 3)]
    return Graph.from_edges(n, k4 + k33 + path)


@pytest.mark.parametrize("g, mirror", [(k4_path_k33(25), None), (twin_k4(10), 1e-10)],
                         ids=["kernel", "power"])
def test_dense_fallback_through_nb_centrality(g, mirror):
    # Two clusters of equal kappa joined by a path: the combinations of the
    # clusters' vectors are nearly tied, so the power loop exhausts its 100
    # steps per dimension and the dense fallback runs.  On the power route,
    # twin K4 with a 10-edge path (N = 17 < 2E_k = 26) keeps the mirror
    # symmetry.  On the kernel route each Newton step after the first starts
    # from the previous step's V, and twin K4's stays symmetric there
    # (test_twin_clusters_certify_on_the_kernel_route); K4 and K_{3,3} (both
    # kappa = 2) with a 25-edge path (2E_k = 32 <= N = 34) mix the two
    # cluster vectors anew at each step, and the second Newton step stalls.
    assert (2 * g.reduction.kernel_edges <= g.n) == (mirror is None)
    nc = nb_centrality(g)
    assert nc.path == "dense"
    assert np.all(nc.x >= 0)
    if mirror is not None:
        assert np.max(np.abs(nc.x - nc.x[::-1])) <= mirror * nc.x.max()
    assert abs(nc.kappa - verify_b_vs_m(g)["kappa_b"]) <= 1e-12


@pytest.mark.parametrize("length", [19, 29, 39, 59, 99])
def test_twin_clusters_certify_on_the_kernel_route(length):
    # Twin K4 joined by a path of 19 or more edges take the kernel route
    # (2E_k = 26 <= N).  From the seeded vector the power loop stalls near the
    # root on the nearly tied antisymmetric combination of the clusters'
    # vectors; from the previous Newton step's V, which the mirror keeps
    # symmetric up to leading_eig's 1e-9 share of the seeded vector, every
    # step certifies.
    g = twin_k4(length)
    nc = nb_centrality(g)
    assert nc.path == "kernel"
    assert abs(nc.kappa - verify_b_vs_m(g)["kappa_b"]) <= 1e-12
    assert np.max(np.abs(nc.x - nc.x[::-1])) <= 1e-9 * nc.x.max()


def test_pendant_tree_centrality_is_exact_on_the_kernel_route():
    # K4 with the same path: 2E_k = 12 <= N = 124, so x comes from the
    # kernel, and each path node takes its parent's x / kappa, exactly.
    g = k_with_path(4, 120)
    nc = nb_centrality(g)
    assert nc.path == "kernel" and nc.kappa == pytest.approx(2.0, rel=1e-14)
    assert np.all(nc.x > 0) and np.all(nc.y >= 0)
    steps = nc.x[4:] / nc.x[3:-1]
    assert np.max(np.abs(steps * nc.kappa - 1.0)) <= 1e-15


def theta_graph(lengths):
    """Branch nodes 0 and 1 joined by internally disjoint paths of the given edge counts."""
    edges, n = [], 2
    for length in lengths:
        inner = list(range(n, n + length - 1))
        nodes = [0, *inner, 1]
        edges += zip(nodes, nodes[1:])
        n += length - 1
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("lengths", [(2, 3, 4), (30, 30, 1), (120, 120, 1), (1000, 1000, 3)])
def test_theta_kappa_on_the_kernel_route(lengths):
    nc = nb_centrality(theta_graph(lengths))
    assert nc.path == "kernel"
    expected = theta_kappa(lengths)
    assert abs(nc.kappa - expected) <= 1e-15 * expected


@pytest.mark.parametrize("n", [240, 30000])
def test_ring_with_chord_needs_no_dense_array(n, monkeypatch):
    # The 30000-ring's M would take 100·2N power steps and then a dense
    # 60000 × 60000 eigensolve; its kernel has 6 arcs.
    def refuse(*args, **kwargs):
        raise AssertionError("a dense array was built")

    monkeypatch.setattr(graph, "dense_on_arcs", refuse)
    monkeypatch.setattr(nbcentrality, "dense_on_arcs", refuse)
    monkeypatch.setattr(spectral, "check_entries", refuse)
    nc = nb_centrality(ring_with_chord(n))
    assert nc.path == "kernel"
    expected = theta_kappa((n // 2, n // 2, 1))
    assert abs(nc.kappa - expected) <= 1e-15 * expected


@pytest.mark.parametrize("g", [
    theta_graph((2, 3, 4)), theta_graph((30, 30, 1)), make_rose(RoseSpec(m=5)), k_with_path(4, 10),
    ring_with_chord(12), gen_ba(60, 2, 3),
], ids=["theta-2-3-4", "theta-30-30-1", "rose-m5", "k4-path10", "ring-chord12", "ba60"])
def test_kernel_operator_matches_its_dense_matrix(g):
    # The matrix lists each continuation e -> f at a branch node, weighted
    # e^(-t l_f); the product subtracts the backtracking term from the sum over the node.
    k = g.kernel
    rng = np.random.default_rng(5)
    for t in (0.0, 0.3):
        weights, apply = nbcentrality._kernel_operator(k, t)
        expected = np.exp(-t * k.length)
        assert np.array_equal(weights, expected)
        cont = (k.head[:, None] == k.tail[None, :]) & (k.reverse[:, None] != np.arange(k.tail.size))
        m = np.where(cont, expected[None, :], 0.0)
        v = rng.standard_normal(k.tail.size)
        assert np.max(np.abs(apply(v) - m @ v)) <= 1e-14 * max(1.0, np.max(np.abs(m @ v)))


@pytest.mark.parametrize("m", [2, 3, 20, 80, 150, 300])
def test_rose_centrality_is_exact_at_every_node(m):
    # Each petal is one chain of length 4 at the hub, so the kernel is m loops
    # and Newton's first step lands on kappa = (2m - 1)^(1/4).
    oracle = rose4_oracle(m)
    nc = nb_centrality(make_rose(RoseSpec(m=m)))
    assert nc.path == "kernel"
    expected = np.tile([oracle.x_int, oracle.x_int, oracle.x_per], m)
    expected = np.concatenate([[oracle.x_hub], expected])
    assert np.max(np.abs(nc.x / expected - 1.0)) <= 1e-12


@pytest.mark.parametrize("g", [make_rose(RoseSpec(m=m)) for m in range(2, 51)]
                         + [theta_graph((2, 3, 4))],
                         ids=[f"rose-m{m}" for m in range(2, 51)] + ["theta-2-3-4"])
def test_verify_b_vs_m_on_kernel_route_graphs(g):
    assert nb_centrality(g).path == "kernel"
    assert verify_b_vs_m(g)["max_gap"] <= 1e-8


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
