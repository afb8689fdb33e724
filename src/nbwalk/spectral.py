"""Eigensolvers: dense symmetric decomposition and leading-eigenpair power iteration."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError

DEFAULT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in ascending order with column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class LeadingEigenpair:
    value: float
    vector: np.ndarray = field(repr=False)
    residual: float = 0.0
    iterations: int = 0
    path: str = "power"  # "dense" when the dense fallback produced the pair


def sym_eig(m, tol=DEFAULT_TOL):
    """Full eigendecomposition of a symmetric matrix.

    Raises if the input deviates from symmetry by more than ``tol`` relative
    to its magnitude.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParamsError("sym_eig needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if float(np.max(np.abs(m - m.T))) > tol * scale:
        raise InvalidParamsError("matrix is not symmetric within tolerance")
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    return SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs)


def _sign_fix(v):
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _dense_leading(m):
    """Fallback: dense nonsymmetric eigensolve, largest real eigenvalue.

    Needed when the dominant eigenvalue is defective or tied in modulus with
    complex eigenvalues (cycles are the canonical case), where power iteration
    stalls.
    """
    evals, evecs = np.linalg.eig(m)
    scale = 1.0 + np.abs(evals)
    # Defective real roots split into conjugate pairs with imaginary parts of
    # roughly sqrt(machine epsilon); the realness cut must stay above that.
    real_mask = np.abs(evals.imag) <= 1e-6 * scale
    if not np.any(real_mask):
        real_mask = np.abs(evals.imag) == np.min(np.abs(evals.imag))
    candidates = np.where(real_mask)[0]
    best = candidates[int(np.argmax(evals.real[candidates]))]
    value = float(evals.real[best])
    vec = np.real(evecs[:, best])
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise InvalidParamsError("degenerate eigenvector in dense fallback")
    vec = _sign_fix(vec / nrm)
    residual = float(np.max(np.abs(m @ vec - value * vec)))
    return value, vec, residual


def leading_eig(m, tol=DEFAULT_TOL, max_iter=None, shift=None, size=None, dense=None):
    """Leading (largest real) eigenpair of a square operator by power iteration.

    ``m`` is a square matrix or a callable ``v -> M v``.  A callable also
    needs ``size`` (the dimension), ``shift`` and ``dense``, a thunk building
    the matrix, which is called only if the dense fallback is needed.

    The iteration runs on ``M + shift*I`` so that the target eigenvalue is
    strictly dominant; the reported value (a Rayleigh quotient) and the
    residual are those of the unshifted operator.  If the iteration does
    not reach ``tol`` (e.g. defective or modulus-tied spectra), a dense
    eigensolve fallback is used.  The vector has unit 2-norm and its
    largest-magnitude entry is positive.
    """
    if callable(m):
        if size is None or shift is None or dense is None:
            raise InvalidParamsError("a callable operator needs size, shift and dense")
        apply, n = m, int(size)
    else:
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParamsError("leading_eig needs a square matrix")
        if not np.any(m):
            raise InvalidParamsError("leading_eig called on a zero matrix")
        if shift is None:
            # Half the max absolute row sum keeps sign-symmetric spectra
            # (bipartite adjacency) from producing a modulus tie.
            shift = 0.5 * float(np.max(np.sum(np.abs(m), axis=1)))
        apply, n = m.__matmul__, m.shape[0]
    if max_iter is None:
        max_iter = 100 * n
    # Deterministic generic start; structured vectors (e.g. all-ones) can be
    # exact non-dominant eigenvectors and freeze the iteration.
    v = np.random.default_rng(0x5EED).random(n) + 0.5
    v /= np.linalg.norm(v)
    value = 0.0
    residual = np.inf
    it = 0
    check_every = 8
    while it < max_iter:
        for _ in range(check_every):
            w = apply(v) + shift * v
            nw = np.linalg.norm(w)
            if nw == 0:
                # Iterate fell into the nullspace; restart from a basis vector.
                w = np.zeros(n)
                w[it % n] = 1.0
                nw = 1.0
            v = w / nw
            it += 1
        mv = apply(v)
        value = float(v @ mv)
        residual = float(np.max(np.abs(mv - value * v)))
        if residual <= tol * max(1.0, abs(value)):
            break
    path = "power"
    if residual > tol * max(1.0, abs(value)):
        value, v, residual = _dense_leading(dense() if callable(m) else m)
        path = "dense"
    v = _sign_fix(v)
    return LeadingEigenpair(value=value, vector=v, residual=residual, iterations=it, path=path)
