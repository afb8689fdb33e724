"""Eigensolvers: dense symmetric decomposition, leading-eigenpair power iteration and Lanczos."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailureError, InvalidParamsError
from .graph import MAX_DENSE_NODES, check_entries

# Convergence and symmetry tolerance, relative to the magnitude of the result.
TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LeadingEigenpair:
    value: float
    vector: np.ndarray = field(repr=False)
    residual: float = 0.0
    iterations: int = 0
    path: str = "power"  # "dense" for the dense fallback, "lanczos" for lanczos_leading


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


def _rayleigh(apply, v):
    """The Rayleigh quotient of the unit vector ``v`` and the max-norm residual of that pair."""
    mv = apply(v)
    value = float(v @ mv)
    return value, float(np.abs(mv - value * v).max())


def _certified(value, residual):
    """The certificate of every leading pair here: ``residual <= TOL * max(1, |value|)``."""
    return residual <= TOL * max(1.0, abs(value))


# The weight of the seeded start vector added to a caller's unit start vector (see leading_eig).
START_MIX = 1e-9


def _start_vector(size):
    # Deterministic generic start; structured vectors (e.g. all-ones) can be
    # exact non-dominant eigenvectors and freeze the iteration.
    v = np.random.default_rng(0x5EED).random(size) + 0.5
    return v / np.linalg.norm(v)


def leading_eig(apply, size, start=None):
    """Leading eigenpair (largest real part) of a square operator by power iteration.

    ``apply`` maps ``v -> M v`` for an operator of dimension ``size`` and
    must return a fresh array on every call, never ``v`` itself or a buffer
    it reuses: each step adds ``v`` to the result and normalises it in place.
    The iteration runs on ``M + I`` and every 8 steps certifies its unit
    vector v by :func:`_certified` at M's Rayleigh quotient v·Mv.  If that
    fails for 100 steps per dimension (e.g. defective or modulus-tied
    spectra), the dense fallback forms M from its columns ``apply(e_j)``, in
    one size×size array refused above ``MAX_DENSE_NODES``² entries before it
    is allocated, and a dense eigensolve takes the eigenvector of the
    eigenvalue of largest real part.  On both paths the value is the
    Rayleigh quotient of the returned unit vector and the residual its
    max-norm residual, under the operator; the fallback's pair is reported
    uncertified.  The vector's largest-magnitude entry is positive.

    The iteration starts from a fixed seeded vector, or, when ``start`` is
    given, from ``start`` normalised plus ``START_MIX`` (1e-9) times that
    seeded vector.  A start close to the Perron vector, such
    as the last pair of a nearby operator, then needs few steps.  The added
    share gives a start that is an exact non-dominant eigenvector a Perron
    component to grow, so it still reaches the certified Perron pair, and
    it keeps the rounding of a structured start from all going one way (on
    the rose kernels, whose Perron vector is uniform, kappa drifted by up
    to 3.2e-15 without it).  A start of the wrong size, or whose 2-norm is
    zero or not finite (a NaN or infinite entry), is refused with
    ``InvalidParamsError`` before any step.

    The unit shift serves the three operators iterated here: the reduced
    2Nx2N M, the explicit non-backtracking B and the kernel's weighted
    B~(z).  M's eigenvalues are eigenvalues of B (Ihara-Bass; B adds only
    +-1), and every eigenvalue of B has |lambda| <= kappa, so
    |lambda + 1| < kappa + 1 for every lambda other than kappa itself: the
    target is strictly dominant whenever kappa > 1.  (kappa = 1 is the
    unicyclic case, which ``nb_centrality`` solves in closed form.)  B~(z) is
    nonnegative and irreducible, so by Perron-Frobenius its every other
    eigenvalue has |lambda| <= rho, and |lambda + 1| < rho + 1 in the same
    way; that covers periodic kernels too, such as the theta graph's, where
    -rho is an eigenvalue.  A shift s contracts the iteration by max |lambda + s| /
    (kappa + s) over the other eigenvalues; for those near the unit circle or
    inside |lambda| <= sqrt(kappa), where most of them lie on sparse graphs,
    that ratio grows with s, so the smallest safe shift is used.  The start
    vector has a component along the Perron vector, which each step scales
    by kappa + 1 > 0, so the iterate never vanishes.  B >= 0 and B~ >= 0, so
    no other eigenvalue of any of the three operators has real part at or
    above the Perron root: the dense fallback's rule picks it.
    """
    v = _start_vector(size)
    if start is not None:
        start = np.asarray(start, dtype=float)
        nrm = float(np.linalg.norm(start)) if start.shape == (size,) else 0.0
        if not 0.0 < nrm < math.inf:
            raise InvalidParamsError(f"start vector needs size {size} and a finite nonzero 2-norm")
        v = start / nrm + START_MIX * v  # power steps do not need a unit v
    for it in range(8, 100 * size + 8, 8):  # the residual is checked every 8 steps
        for _ in range(8):
            w = apply(v)
            w += v
            w /= math.sqrt(w.dot(w))  # np.linalg.norm(w) exactly, without its call overhead
            v = w
        value, residual = _rayleigh(apply, v)
        if _certified(value, residual):
            return LeadingEigenpair(value=value, vector=_sign_fix(v), residual=residual,
                                    iterations=it)
    check_entries(size * size, f"the dense fallback's {size}x{size} matrix")
    m = np.empty((size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        m[:, j] = apply(e)
        e[j] = 0.0
    evals, evecs = np.linalg.eig(m)
    v = np.real(evecs[:, np.argmax(evals.real)])
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise InvalidParamsError("degenerate eigenvector in dense fallback")
    v = v / nrm
    value, residual = _rayleigh(apply, v)
    return LeadingEigenpair(value=value, vector=_sign_fix(v), residual=residual, iterations=it,
                            path="dense")


def lanczos_leading(apply, size):
    """Largest eigenpair of a symmetric operator by Lanczos with full reorthogonalisation.

    ``apply`` maps ``v -> A v`` for a symmetric A of dimension ``size``.  The
    Krylov basis is held as rows, each orthogonalised against all earlier ones
    by classical Gram-Schmidt run twice (Parlett, *The Symmetric Eigenvalue
    Problem*, 1998), so k steps cost k products with A plus O(k^2 N) and keep
    k·N numbers; the rows grow by doubling.  Every max(8, k // 4) steps the
    k×k tridiagonal T_k is diagonalised.  When the Ritz estimate
    |beta_k s_k| of its largest Ritz pair is at most 0.1·TOL·max(1, |theta|),
    the Ritz vector y is formed and certified by :func:`_certified` at its
    Rayleigh quotient, as in :func:`leading_eig`.
    At a breakdown (the new direction falls to TOL·|A v|) or at k == size
    the Krylov space is invariant and the Ritz pair is exact, so a pair that
    still misses the bound raises ``ConvergenceFailureError``; so does a
    basis that would pass MAX_DENSE_NODES² entries.  The vector has unit
    2-norm and its largest-magnitude entry is positive.
    """
    v = _start_vector(size)
    max_rows = max(1, MAX_DENSE_NODES**2 // size)
    basis = np.empty((min(size, 16, max_rows), size))
    alpha, beta = [], []
    k = 0
    check_at = 8
    while True:
        if k == basis.shape[0]:
            if k >= max_rows:
                raise ConvergenceFailureError(
                    f"Lanczos basis would pass {MAX_DENSE_NODES}² entries after {k} steps")
            grown = np.empty((min(2 * k, size, max_rows), size))
            grown[:k] = basis
            basis = grown
        basis[k] = v
        w = apply(v)
        scale = float(np.linalg.norm(w))
        q = basis[: k + 1]
        coef = q @ w
        alpha.append(float(coef[k]))
        w -= coef @ q
        w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        k += 1
        final = k == size or b <= TOL * scale
        if final or k >= check_at:
            check_at = k + max(8, k // 4)
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if final or abs(b * s[-1, -1]) <= 0.1 * TOL * max(1.0, abs(theta[-1])):
                y = s[:, -1] @ q
                y /= np.linalg.norm(y)
                value, residual = _rayleigh(apply, y)
                if _certified(value, residual):
                    return LeadingEigenpair(value=value, vector=_sign_fix(y), residual=residual,
                                            iterations=k, path="lanczos")
                if final:
                    raise ConvergenceFailureError(
                        f"Lanczos residual {residual:.3e} on an invariant Krylov space",
                        residual=residual)
        beta.append(b)
        v = w / b
