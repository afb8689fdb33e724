"""Hitting times: one formula over the weighted-Laplacian pseudo-inverse for every walk, and the linear-solve oracle."""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError
from .nbcentrality import nb_centrality  # noqa: F401  -- benchmarks/tests/test_tracer.py expects it
from .walks import _fundamental_solve, reversible_walk


class HittingReport:
    """Pairwise hitting times plus partial and global means.

    ``t_partial`` and ``t_global`` are evaluated from their own formulas, not
    aggregated from ``t``; agreement between the two routes is a correctness
    check, not a construction.  ``t`` is given as an array or as a function
    of no arguments that forms it; the function runs on the first read of
    ``t``, and its result is kept.
    """

    def __init__(self, kind, t, t_partial, t_global=0.0, method="spectral"):
        self.kind = kind
        self._t = t
        self.t_partial = t_partial
        self.t_global = t_global
        self.method = method

    @property
    def t(self):
        if callable(self._t):
            self._t = self._t()
        return self._t

    def __repr__(self):
        return f"HittingReport(kind={self.kind!r}, t_global={self.t_global!r}, method={self.method!r})"


# Largest relative error a hitting time may carry before it is refused.
MAX_RELATIVE_ERROR = 1e-7


def _check_spread(values, what):
    """Refuse weights whose spread leaves the hitting times too few correct digits.

    A hitting time weighs the walk's strengths (or its stationary law) against
    each other, so a rounding error of 2⁻⁵³ relative to the largest weight is
    ``max/min · 2⁻⁵³`` relative to the smallest.  That is an estimate of the
    error, not a bound on it: on Les Misérables' MERW it is 2.3e-12, yet
    T(leaf -> its neighbour) = 1 comes out 6.7e-11 off, and every entry
    above the estimate starts at a pendant-tree leaf, with the leaf's parent
    or grandparent as the target.  Above ``MAX_RELATIVE_ERROR``, or with a
    weight that is not positive, ``IllConditionedError`` is raised.
    """
    lo, hi = float(values.min()), float(values.max())
    spread = hi / lo * 2.0**-53 if lo > 0.0 else np.inf
    if not spread <= MAX_RELATIVE_ERROR:
        raise IllConditionedError(
            f"{what}: the weights span {lo:.3e} to {hi:.3e}, so the hitting times may be off "
            f"by max/min * 2^-53 = {spread:.3e} of themselves, above {MAX_RELATIVE_ERROR:g}")


def hitting_linear(p):
    """Oracle: every T_ij from one solve of the fundamental matrix G = (I - P + 1uᵀ)⁻¹, u = 1/n.

    Since (I - P) G = I - 1πᵀ with πᵀ = uᵀG, column j of
    T_ij = (G_jj - G_ij) / π_j solves the absorbing system (I - P₋ⱼ) t = 1.
    """
    n = p.p.shape[0]
    t = _fundamental_solve(p, np.eye(n))  # G, turned into T in place below
    pi = t.mean(axis=0)
    _check_spread(pi, f"{p.kind.value} chain")
    t -= np.diag(t).copy()
    t /= -pi
    np.fill_diagonal(t, 0.0)
    t_partial = t.sum(axis=0) / (n - 1)
    t_global = float(t_partial.mean())
    return HittingReport(kind=p.kind, t=t, t_partial=t_partial, t_global=t_global, method="linear_solve")


BLOCK = 64  # diagonal blocks of at most this many rows are inverted by LAPACK


def _invert_lower(r):
    """Overwrite the lower-triangular ``r`` with its inverse, by 2×2 blocks.

    [[A, 0], [B, C]]⁻¹ = [[A⁻¹, 0], [−C⁻¹ B A⁻¹, C⁻¹]]: A and C are inverted
    in place first, so every step above the base blocks is a matmul.
    """
    n = r.shape[0]
    if n <= BLOCK:
        r[...] = np.tril(np.linalg.inv(r))
        return
    h = n // 2
    _invert_lower(r[:h, :h])
    _invert_lower(r[h:, h:])
    r[h:, :h] = r[h:, h:] @ (r[h:, :h] @ r[:h, :h])
    r[h:, :h] *= -1.0


def walk_hitting(walk):
    """Hitting times of a reversible walk from the pseudo-inverse of its weighted Laplacian.

    The dense Laplacian L = diag(s) - W is scattered from the walk's arcs,
    which the walk checked to be connected where it was built.  The strengths
    ``s`` take the place of the degrees, and their sum the place of 2E.  The
    spectral sum L⁺ = Σ_k v_k v_kᵀ / σ_k over the nonzero Laplacian
    eigenpairs is evaluated in closed form: L + c 11ᵀ is positive definite
    on a connected support, with c = Σs / N² (so its eigenvalue on 1, cN, is
    the mean strength), and its inverse is L⁺ + 11ᵀ / (cN²) = L⁺ + 11ᵀ / Σs.
    With the Cholesky factor L + c 11ᵀ = R Rᵀ that inverse is R⁻ᵀR⁻¹, so
    its diagonal is the squared column norms of R⁻¹.  With gram = Σs·L⁺ and
    alpha = L⁺ s = R⁻ᵀ(R⁻¹ s) − 1, T_ij = alpha_i - alpha_j - gram_ij + gram_jj,
    the partial means are N/(N-1)·(gram_jj - alpha_j) and the global mean
    is trace(gram)/(N-1); the means cost O(N²) once R⁻¹ is known, and the
    pairwise matrix is formed only when ``t`` is read.
    """
    _check_spread(walk.s, f"{walk.kind.value} walk")
    n = walk.s.shape[0]
    total = float(walk.s.sum())
    lap = walk.laplacian()
    lap += total / n**2
    try:
        rinv = np.linalg.cholesky(lap)  # R, inverted in place below
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"{walk.kind.value} walk: the weighted Laplacian is numerically singular "
            "(its Cholesky factorisation failed)") from exc
    del lap
    _invert_lower(rinv)
    gdiag = (np.einsum("ij,ij->j", rinv, rinv) - 1.0 / total) * total
    alpha = rinv.T @ (rinv @ walk.s) - 1.0

    def pairwise():
        t = rinv.T @ rinv  # (L + c 11ᵀ)⁻¹, turned into T in place
        t -= 1.0 / total
        t *= -total
        t += gdiag[None, :]
        t += alpha[:, None]
        t -= alpha[None, :]
        np.fill_diagonal(t, 0.0)
        return t

    t_partial = n / (n - 1.0) * (gdiag - alpha)
    t_global = float(gdiag.sum()) / (n - 1.0)
    return HittingReport(kind=walk.kind, t=pairwise, t_partial=t_partial, t_global=t_global)


def hitting_spectral(kind, g):
    """Pairwise, partial and global mean hitting times of any walk kind."""
    return walk_hitting(reversible_walk(kind, g))


def hub_node(g):
    """Max-degree node; ties resolve to the smallest label."""
    return int(np.argmax(g.degrees))


def eq26_audit(consistent, linear):
    """Document the pairwise-formula prefactor discrepancy on a concrete graph.

    Takes the NBCRW walk's spectral report ``consistent`` and its
    linear-solve report ``linear``.  Returns both evaluations of the pairwise
    hitting-time formula (with and without the printed 1/2) and the largest
    gap of each from the linear-solve oracle ``linear.t``, so the
    disagreement of the verbatim form is visible in one report.
    """
    t_verbatim = 0.5 * consistent.t
    gap_consistent = float(np.max(np.abs(consistent.t - linear.t)))
    gap_verbatim = float(np.max(np.abs(t_verbatim - linear.t)))
    return {
        "t_consistent": consistent.t,
        "t_verbatim": t_verbatim,
        "max_gap_consistent_vs_linear": gap_consistent,
        "max_gap_verbatim_vs_linear": gap_verbatim,
        "note": (
            "pairwise formula printed with a 1/2 prefactor disagrees with the "
            "partial/global formulas and the absorbing-system oracle; the "
            "prefactor-free variant is the consistent one"
        ),
    }
