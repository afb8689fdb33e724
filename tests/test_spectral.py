"""Eigensolver kernel tests: full symmetric decomposition and leading pair."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    InvalidParamsError, Graph, RoseSpec, build_m_matrix, laplacian, leading_eig,
    make_rose, sym_eig,
)

from conftest import complete_graph, cycle_graph, dense_pair, star_with_chord


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


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


def test_sym_eig_trace_identity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    evals, _ = sym_eig(m)
    assert np.sum(evals) == pytest.approx(np.trace(m), rel=1e-9)


def test_leading_eig_complete_graph():
    pair = dense_pair(complete_graph(4).adjacency, shift=1.5)
    assert pair.value == pytest.approx(3.0, abs=1e-10)
    assert np.allclose(pair.vector, 0.5 * np.ones(4), atol=1e-9)


def test_leading_eig_star():
    pair = dense_pair(star_graph(4).adjacency, shift=2.0)
    assert pair.value == pytest.approx(2.0, abs=1e-10)
    assert pair.vector[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_leading_eig_rose_m_matrix():
    pair = dense_pair(build_m_matrix(make_rose(RoseSpec(m=2))), shift=4.0)
    assert pair.value == pytest.approx(3.0**0.25, abs=1e-9)
    assert pair.value == pytest.approx(1.3160740, abs=1e-6)


def test_leading_eig_matches_sym_eig():
    for g in (complete_graph(5), star_with_chord(9), cycle_graph(7)):
        a = g.adjacency
        lam = float(sym_eig(a)[0][-1])
        pair = dense_pair(a, shift=0.5 * float(g.degrees.max()))
        assert abs(pair.value - lam) <= 1e-8 * (1.0 + lam)


def test_leading_eig_residual_contract():
    m = build_m_matrix(star_with_chord(7))
    pair = dense_pair(m, shift=float(star_with_chord(7).degrees.max()))
    assert pair.residual <= 1e-12 * max(1.0, abs(pair.value))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)


def test_leading_eig_bipartite_sign_symmetric_spectrum():
    # Even cycles have eigenvalues +/-2; the shift must break the modulus tie.
    pair = dense_pair(cycle_graph(8).adjacency, shift=1.0)
    assert pair.value == pytest.approx(2.0, abs=1e-9)


def test_leading_eig_defective_dominant_eigenvalue():
    # The reduced 2N matrix of a cycle has a defective leading root where
    # plain power iteration stalls; the dense fallback must take over.
    g = cycle_graph(6)
    pair = dense_pair(build_m_matrix(g), shift=2.0)
    assert pair.value == pytest.approx(1.0, abs=1e-8)


def test_leading_eig_operator_form_reaches_dense_fallback():
    # Same defective case through an operator that is not a matrix: the
    # dense thunk is built once, for the fallback only.
    m = build_m_matrix(cycle_graph(6))
    built = []

    def dense():
        built.append(True)
        return m

    pair = leading_eig(lambda v: m @ v, size=m.shape[0], shift=2.0, dense=dense)
    assert pair.value == pytest.approx(1.0, abs=1e-8)
    assert pair.path == "dense" and built == [True]
    assert pair.iterations == 100 * m.shape[0]



@pytest.mark.parametrize("missing", ["size", "shift", "dense"])
def test_leading_eig_operator_needs_size_shift_and_dense(missing):
    # Every argument is required: there is no default shift to fall back on.
    m = build_m_matrix(star_with_chord(7))
    kwargs = {"size": m.shape[0], "shift": 3.0, "dense": lambda: m}
    del kwargs[missing]
    with pytest.raises(TypeError, match=missing):
        leading_eig(m.__matmul__, **kwargs)

def test_leading_eig_deterministic():
    m = build_m_matrix(star_with_chord(11))
    a = dense_pair(m, shift=1.0)
    b = dense_pair(m, shift=1.0)
    assert a.value == b.value
    assert a.vector.tobytes() == b.vector.tobytes()
