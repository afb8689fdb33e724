"""Eigensolvers: dense symmetric decomposition and leading-eigenpair power iteration."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError

# Convergence and symmetry tolerance, relative to the magnitude of the result.
TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LeadingEigenpair:
    value: float
    vector: np.ndarray = field(repr=False)
    residual: float = 0.0
    iterations: int = 0
    path: str = "power"  # "dense" when the dense fallback produced the pair


def sym_eig(m):
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, as ``np.linalg.eigh`` gives them.

    The eigenvalues ascend and the eigenvectors are orthonormal columns.
    Raises if the input deviates from symmetry by more than ``TOL`` relative
    to its magnitude.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParamsError("sym_eig needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if float(np.max(np.abs(m - m.T))) > TOL * scale:
        raise InvalidParamsError("matrix is not symmetric within tolerance")
    return np.linalg.eigh(0.5 * (m + m.T))


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


def leading_eig(apply, size, shift, dense):
    """Leading (largest real) eigenpair of a square operator by power iteration.

    ``apply`` maps ``v -> M v`` for an operator of dimension ``size``;
    ``dense`` is a thunk building M, called only if the dense fallback is
    needed.  The iteration runs on ``M + shift*I``, with ``shift`` chosen by
    the caller so that the target eigenvalue is strictly dominant; the
    reported value (a Rayleigh quotient) and the residual are those of the
    unshifted operator.  If the iteration does not reach ``TOL`` within 100
    steps per dimension (e.g. defective or modulus-tied spectra), a dense
    eigensolve fallback is used.  The vector has unit 2-norm and its
    largest-magnitude entry is positive.
    """
    # Deterministic generic start; structured vectors (e.g. all-ones) can be
    # exact non-dominant eigenvectors and freeze the iteration.
    v = np.random.default_rng(0x5EED).random(size) + 0.5
    v /= np.linalg.norm(v)
    value = 0.0
    residual = np.inf
    it = 0
    check_every = 8
    while it < 100 * size:
        for _ in range(check_every):
            w = apply(v) + shift * v
            nw = np.linalg.norm(w)
            if nw == 0:
                # Iterate fell into the nullspace; restart from a basis vector.
                w = np.zeros(size)
                w[it % size] = 1.0
                nw = 1.0
            v = w / nw
            it += 1
        mv = apply(v)
        value = float(v @ mv)
        residual = float(np.max(np.abs(mv - value * v)))
        if residual <= TOL * max(1.0, abs(value)):
            break
    path = "power"
    if residual > TOL * max(1.0, abs(value)):
        value, v, residual = _dense_leading(dense())
        path = "dense"
    v = _sign_fix(v)
    return LeadingEigenpair(value=value, vector=v, residual=residual, iterations=it, path=path)
