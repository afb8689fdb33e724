"""Seeded Monte Carlo walker on a walk's arcs, a statistical cross-check of exact results."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError
from .graph import MAX_EXACT_INT, check_entries

RNG_METADATA = {
    "algorithm": "numpy PCG64",
    "streams": "default_rng([seed]) per call; each step draws one uniform per live "
               "trial or chain, in index order",
}


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int = 100_000
    max_steps: int = 1_000_000
    burn_in: int = 1000

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParamsError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.trials <= MAX_EXACT_INT:
            raise InvalidParamsError(f"trials must be in [1, 2**53], got {self.trials}")
        if not 1 <= self.max_steps <= MAX_EXACT_INT:
            raise InvalidParamsError(f"max_steps must be in [1, 2**53], got {self.max_steps}")
        if not 0 <= self.burn_in <= MAX_EXACT_INT:
            raise InvalidParamsError(f"burn_in must be in [0, 2**53], got {self.burn_in}")


@dataclass(frozen=True, eq=False)
class SimResult:
    mode: str
    estimates: np.ndarray = field(repr=False)
    standard_errors: np.ndarray = field(repr=False)
    truncated: int = 0
    samples: int = 0
    truncated_fraction: float = 0.0
    estimate_excluding_truncated: float = float("nan")
    estimate_cap_bound: float = float("nan")
    rng: dict = field(default_factory=lambda: dict(RNG_METADATA))


def _stepper(walk):
    """``step(nodes, u)``: move the walker at each ``nodes[k]`` by the uniform ``u[k]``, at once.

    The arc table is the walk's arcs with p = w / s[src] > 0, in row order
    (``walk.src`` ascending), keyed by row index plus cumulative probability
    within the row; the last key of row i is exactly i + 1.  A draw takes
    the first arc whose key exceeds i + u, clamped to the row's last arc for
    when i + u rounds up to i + 1.  No N×N array is formed.
    """
    n = walk.s.shape[0]
    prob = walk.w / walk.s[walk.src]
    on = prob > 0.0  # an underflowed weight is no arc of P
    rows, dst, prob = walk.src[on], walk.dst[on], prob[on]
    last = np.cumsum(np.bincount(rows, minlength=n)) - 1
    cum = np.cumsum(prob)
    before = np.concatenate([[0.0], cum[last[:-1]]])  # total of the rows above
    keys = rows + np.minimum(cum - before[rows], 1.0)
    keys[last] = np.arange(n) + 1.0

    def step(nodes, u):
        arc = np.searchsorted(keys, nodes + u, side="right")
        return dst[np.minimum(arc, last[nodes])]

    return step


def simulate_stationary(walk, cfg):
    """Visit frequencies of ``walk`` over max(2, sqrt(trials)) independent chains from node 0.

    Each chain walks ``burn_in`` steps, then ``max_steps // chains`` counted
    steps; standard errors are taken across the chains' frequencies.
    """
    n = walk.s.shape[0]
    chains = max(2, int(np.sqrt(cfg.trials)))
    length = cfg.max_steps // chains
    if length < 1:
        raise InvalidParamsError("max_steps too small for batch-means error estimate")
    check_entries(chains * n, f"{chains} chains of visit counts on {n} nodes")
    step = _stepper(walk)
    rng = np.random.default_rng([cfg.seed])
    nodes = np.zeros(chains, dtype=np.intp)
    for _ in range(cfg.burn_in):
        nodes = step(nodes, rng.random(chains))
    counts = np.zeros(chains * n)
    offsets = np.arange(chains) * n
    for _ in range(length):
        nodes = step(nodes, rng.random(chains))
        counts[offsets + nodes] += 1.0
    freq = counts.reshape(chains, n) / length
    return SimResult(
        mode="stationary",
        estimates=freq.mean(axis=0),
        standard_errors=freq.std(axis=0, ddof=1) / np.sqrt(chains),
        samples=chains * length,
    )


def simulate_hitting(walk, source, target, cfg):
    """Mean first-arrival step of ``walk`` over independent trials walked together.

    Trials hitting the step cap are reported separately; if more than 0.1% are
    truncated the point estimate is withheld (NaN) and only the exclusion and
    cap-substitution bounds are reported.
    """
    n = walk.s.shape[0]
    if source == target:
        raise InvalidParamsError("source and target must differ")
    if not (0 <= source < n and 0 <= target < n):
        raise InvalidParamsError("source/target out of range")
    check_entries(cfg.trials, f"{cfg.trials} trials")
    step = _stepper(walk)
    rng = np.random.default_rng([cfg.seed])
    steps = np.full(cfg.trials, float(cfg.max_steps))  # truncated trials keep the cap
    live = np.arange(cfg.trials)
    nodes = np.full(cfg.trials, source)
    for t in range(1, cfg.max_steps + 1):
        nodes = step(nodes, rng.random(live.size))
        hit = nodes == target
        steps[live[hit]] = t
        live, nodes = live[~hit], nodes[~hit]
        if not live.size:
            break
    done = np.delete(steps, live)
    frac = live.size / cfg.trials
    mean_excl = float(done.mean()) if done.size else float("nan")
    estimate = se = float("nan")
    if frac <= 0.001 and done.size:
        estimate = mean_excl
        if done.size > 1:
            se = float(done.std(ddof=1) / np.sqrt(done.size))
    return SimResult(
        mode="hitting",
        estimates=np.array([estimate]),
        standard_errors=np.array([se]),
        truncated=live.size,
        samples=int(done.size),
        truncated_fraction=frac,
        estimate_excluding_truncated=mean_excl,
        estimate_cap_bound=float(steps.mean()),
    )
