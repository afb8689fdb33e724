"""Eigensolver kernel tests: full symmetric decomposition and leading pair."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    ConvergenceFailureError, InvalidParamsError, Graph, RoseSpec, build_m_matrix,
    eigenvector_centrality, gen_ba, gen_ws, graph, lanczos_leading, leading_eig, make_rose,
    spectral, sym_eig,
)
from nbwalk.nbcentrality import _adj_matvec, _m_operator

from conftest import (
    complete_graph, cycle_graph, dense_pair, ring_with_chord, star_graph, star_with_chord,
)
from oracles import laplacian


def test_sym_eig_two_by_two():
    evals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evals, [-1.0, 1.0])


def test_sym_eig_triangle_laplacian():
    evals, _ = sym_eig(laplacian(complete_graph(3)))
    assert np.allclose(evals, [0.0, 3.0, 3.0], atol=1e-12)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((8, 8))
    m = m + m.T
    evals, evecs = sym_eig(m)
    rebuilt = evecs @ np.diag(evals) @ evecs.T
    assert np.max(np.abs(rebuilt - m)) <= 1e-10
    assert np.max(np.abs(evecs.T @ evecs - np.eye(8))) <= 1e-10
    assert np.all(np.diff(evals) >= -1e-12)


def test_sym_eig_residual_per_pair():
    m = laplacian(star_with_chord(8))
    evals, evecs = sym_eig(m)
    for k in range(m.shape[0]):
        res = np.max(np.abs(m @ evecs[:, k] - evals[k] * evecs[:, k]))
        assert res <= 1e-10 * (1.0 + abs(evals[k]))


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidParamsError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_rejects_non_square():
    with pytest.raises(InvalidParamsError, match="sym_eig needs a square matrix"):
        sym_eig(np.zeros((2, 3)))


def test_sym_eig_trace_identity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    evals, _ = sym_eig(m)
    assert np.sum(evals) == pytest.approx(np.trace(m), rel=1e-9)


def test_leading_eig_complete_graph():
    pair = dense_pair(complete_graph(4).adjacency)
    assert pair.value == pytest.approx(3.0, abs=1e-10)
    assert np.allclose(pair.vector, 0.5 * np.ones(4), atol=1e-9)


def test_leading_eig_star():
    pair = dense_pair(star_graph(4).adjacency)
    assert pair.value == pytest.approx(2.0, abs=1e-10)
    assert pair.vector[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_leading_eig_rose_m_matrix():
    pair = dense_pair(build_m_matrix(make_rose(RoseSpec(m=2))))
    assert pair.value == pytest.approx(3.0**0.25, abs=1e-9)
    assert pair.value == pytest.approx(1.3160740, abs=1e-6)


def test_leading_eig_matches_sym_eig():
    for g in (complete_graph(5), star_with_chord(9), cycle_graph(7)):
        a = g.adjacency
        lam = float(sym_eig(a)[0][-1])
        pair = dense_pair(a)
        assert abs(pair.value - lam) <= 1e-8 * (1.0 + lam)


def test_leading_eig_residual_contract():
    m = build_m_matrix(star_with_chord(7))
    pair = dense_pair(m)
    assert pair.residual <= 1e-12 * max(1.0, abs(pair.value))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


def test_leading_eig_bipartite_sign_symmetric_spectrum():
    # Even cycles have eigenvalues +/-2; the unit shift must break the modulus tie.
    pair = dense_pair(cycle_graph(8).adjacency)
    assert pair.value == pytest.approx(2.0, abs=1e-9)


def test_leading_eig_defective_dominant_eigenvalue():
    # The reduced 2N matrix of a cycle has a defective leading root where
    # plain power iteration stalls; the dense fallback must take over.
    g = cycle_graph(6)
    pair = dense_pair(build_m_matrix(g))
    assert pair.value == pytest.approx(1.0, abs=1e-8)


def test_leading_eig_operator_form_reaches_dense_fallback():
    # Same defective case through the edge-list operator, which is not a
    # matrix: the fallback forms M from the operator's columns, and that is
    # build_m_matrix's M to the bit, so its vector is the sign-fixed Perron
    # column of the dense eigensolve of that M.
    g = cycle_graph(6)
    m = build_m_matrix(g)
    evals, evecs = np.linalg.eig(m)
    expected = np.real(evecs[:, np.argmax(evals.real)])
    expected = expected / np.linalg.norm(expected)
    if expected[np.argmax(np.abs(expected))] < 0:
        expected = -expected
    pair = leading_eig(_m_operator(g), size=m.shape[0])
    assert pair.value == pytest.approx(1.0, abs=1e-8)
    assert pair.path == "dense" and pair.iterations == 100 * m.shape[0]
    assert pair.vector.tobytes() == expected.tobytes()


def test_leading_eig_operator_needs_size():
    # The operator alone does not tell its dimension.
    m = build_m_matrix(star_with_chord(7))
    with pytest.raises(TypeError, match="size"):
        leading_eig(m.__matmul__)


def test_dense_fallback_is_refused_above_the_cap(monkeypatch):
    # The 6-cycle's M exhausts the power loop; under a cap of 3 nodes its
    # 12 × 12 matrix (144 > 9 entries) is refused before the fallback
    # allocates a 2-D array or forms a single column.
    class NoMatrix:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kwargs):
            assert np.size(shape) < 2, f"an array of shape {shape} was allocated"
            return np.empty(shape, *args, **kwargs)

        zeros = empty

    op, nonzeros = _m_operator(cycle_graph(6)), []

    def apply(v):
        nonzeros.append(np.count_nonzero(v))
        return op(v)

    monkeypatch.setattr(graph, "MAX_DENSE_NODES", 3)
    monkeypatch.setattr(spectral, "np", NoMatrix())
    with pytest.raises(InvalidParamsError, match=(
            r"^the dense fallback's 12x12 matrix: 144 entries are above the cap of "
            r"MAX_DENSE_NODES² = 9$")):
        leading_eig(apply, size=12)
    # 9 products per 8 power steps, over 100 steps per dimension, and none on a unit vector.
    assert len(nonzeros) == 9 * 100 * 12 // 8 and min(nonzeros) == 12


def test_leading_eig_deterministic():
    m = build_m_matrix(star_with_chord(11))
    a = dense_pair(m)
    b = dense_pair(m)
    assert a.value == b.value
    assert a.vector.tobytes() == b.vector.tobytes()


@pytest.mark.parametrize("start", [np.zeros(8), np.full(8, np.nan), np.r_[np.inf, np.ones(7)],
                                   np.ones(7)], ids=["zero", "nan", "inf", "wrong-size"])
def test_leading_eig_refuses_a_bad_start_before_any_step(start):
    op, calls = _m_operator(complete_graph(4)), []

    def apply(v):
        calls.append(v)
        return op(v)

    with pytest.raises(InvalidParamsError, match="start vector"):
        leading_eig(apply, size=8, start=start)
    assert calls == []


@pytest.mark.parametrize("apply, start, eigenvalue, perron", [
    (_m_operator(complete_graph(4)), np.ones(8), 1.0, 2.0),
    (complete_graph(4).adjacency.__matmul__, np.eye(4)[0] - np.eye(4)[1], -1.0, 3.0),
], ids=["m-ones", "adjacency-e0-e1"])
def test_leading_eig_start_on_a_non_dominant_eigenvector(apply, start, eigenvalue, perron):
    # The trap the seeded start avoids.  From K4's M and the all-ones vector
    # alone, power iteration would certify (1, ones) with a zero residual;
    # from K4's adjacency and e0 - e1, the first step of A + I would give the
    # zero vector.  The share of the seeded vector that leading_eig adds to a
    # start grows into the certified Perron pair.
    assert np.array_equal(apply(start), eigenvalue * start)
    pair = leading_eig(apply, size=start.size, start=start)
    assert pair.path == "power"
    assert pair.value == pytest.approx(perron, abs=1e-10)
    assert pair.residual <= 1e-12 * perron
    assert np.all(pair.vector > 0)


@pytest.mark.parametrize("path", ["power", "dense", "lanczos"])
def test_reported_pair_is_the_certificate_of_its_vector(path):
    # On every path the value is the Rayleigh quotient of the returned unit
    # vector, to the last bit, and the residual is the max-norm residual of
    # that pair, under the operator the solver iterated: M's edge-list
    # product (power and the fallback) or A's edge-list product (Lanczos).
    if path == "lanczos":
        g = gen_ba(200, 2, 1)
        pair, apply = eigenvector_centrality(g), lambda v: _adj_matvec(g, v)
    else:
        # Power iteration on the 240-ring's M exhausts its 100 steps per dimension and
        # falls back to the dense eigensolve.
        g = make_rose(RoseSpec(m=3)) if path == "power" else ring_with_chord(240)
        apply = _m_operator(g)
        pair = leading_eig(apply, size=2 * g.n)
    v = pair.vector
    mv = apply(v)
    assert pair.path == path
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert pair.value == float(v @ mv)
    assert pair.residual == float(np.max(np.abs(mv - pair.value * v)))
    assert pair.residual <= 1e-12 * max(1.0, abs(pair.value))


def adjacency_lanczos(g):
    return lanczos_leading(lambda v: _adj_matvec(g, v), size=g.n)


def ladder_graph(n):
    """Two n-rings joined rung by rung: 3-regular."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(2 * n, ring + [(n + u, n + v) for u, v in ring]
                            + [(i, n + i) for i in range(n)])


def test_lanczos_matches_eigh(corpus):
    roses = [(f"rose-m{m}", make_rose(RoseSpec(m=m))) for m in (2, 10, 80)]
    for name, g in corpus + roses + [("ws-510-6", gen_ws(510, 6, 0.1, 2))]:
        evals, evecs = np.linalg.eigh(g.adjacency)
        psi = evecs[:, -1] * np.sign(evecs[:, -1].sum())
        pair = adjacency_lanczos(g)
        assert pair.path == "lanczos", name
        assert abs(pair.value - evals[-1]) <= 1e-12 * max(1.0, evals[-1]), name
        assert np.max(np.abs(pair.vector - psi)) <= 1e-12, name
        assert pair.residual <= 1e-12 * max(1.0, pair.value), name
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12), name


@pytest.mark.parametrize("g, degree", [(cycle_graph(101), 2), (ladder_graph(40), 3)],
                         ids=["ring", "ladder"])
def test_lanczos_regular_graph_is_uniform(g, degree):
    pair = adjacency_lanczos(g)
    assert pair.value == pytest.approx(degree, abs=1e-12)
    assert np.max(np.abs(pair.vector - 1.0 / np.sqrt(g.n))) <= 1e-12


def test_lanczos_breakdown_gives_exact_pair():
    # A of K5 is J - I, so the Krylov space of any start vector is spanned by
    # it and the all-ones vector: the second step breaks down.
    pair = adjacency_lanczos(complete_graph(5))
    assert pair.iterations == 2
    assert pair.value == pytest.approx(4.0, abs=1e-14)
    assert np.max(np.abs(pair.vector - 1.0 / np.sqrt(5.0))) <= 1e-15


def test_lanczos_star_takes_the_positive_root():
    # The spectrum of a star is +-sqrt(n - 1) and zeros; the largest is the positive root.
    pair = adjacency_lanczos(star_graph(9))
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    assert pair.vector[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.all(pair.vector > 0)


def test_lanczos_deterministic():
    g = gen_ws(510, 6, 0.1, 2)
    a, b = adjacency_lanczos(g), adjacency_lanczos(g)
    assert a.iterations == b.iterations
    assert a.value == b.value
    assert a.vector.tobytes() == b.vector.tobytes()


def test_lanczos_basis_is_capped(monkeypatch):
    # A ring of 400 needs far more than 4 basis rows of 400 entries, the most
    # a cap of 40 nodes allows: the solver refuses instead of growing the basis.
    monkeypatch.setattr("nbwalk.spectral.MAX_DENSE_NODES", 40)
    with pytest.raises(ConvergenceFailureError, match="Lanczos basis"):
        adjacency_lanczos(cycle_graph(400))


def test_lanczos_refuses_an_uncertified_pair_on_an_invariant_space():
    # A non-symmetric operator breaks Lanczos' premise: at k == size the
    # Krylov space is the whole space, yet the Ritz pair misses the bound.
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConvergenceFailureError,
                       match=r"Lanczos residual \S+ on an invariant Krylov space") as exc:
        lanczos_leading(shear.__matmul__, 2)
    assert exc.value.exit_code == 5 and exc.value.residual > 0.1
