"""Monte Carlo walker: determinism, truncation accounting, statistical checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from nbwalk import (
    InvalidParamsError, ReversibleWalk, RoseSpec, SimConfig, WalkKind, gen_ba, make_rose,
    reversible_walk, simulate_hitting, simulate_stationary,
)

from nbwalk.graph import MAX_DENSE_NODES
from nbwalk.simulate import _stepper

from conftest import complete_graph


def test_config_validation():
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, trials=0)
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, max_steps=0)
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, burn_in=-1)


def test_walker_arrays_above_the_dense_cap_are_refused():
    # Both configurations ask for arrays just over MAX_DENSE_NODES² entries
    # (3.2 GB of floats each); they are refused before anything is allocated.
    walk = reversible_walk(WalkKind.TURW, make_rose(RoseSpec(m=2)))  # 7 nodes
    cap = MAX_DENSE_NODES**2
    with pytest.raises(InvalidParamsError, match="trials: .* above the cap"):
        simulate_hitting(walk, 1, 0, SimConfig(seed=0, trials=cap + 1))
    chains = cap // 7 + 1
    cfg = SimConfig(seed=0, trials=chains**2, max_steps=chains)
    with pytest.raises(InvalidParamsError, match=f"{chains} chains of visit counts on 7 nodes"):
        simulate_stationary(walk, cfg)


def test_stationary_triangle_within_three_se():
    walk = reversible_walk(WalkKind.TURW, complete_graph(3))
    cfg = SimConfig(seed=7, trials=10_000, max_steps=30_000, burn_in=100)
    out = simulate_stationary(walk, cfg)
    assert out.mode == "stationary"
    assert out.estimates.sum() == pytest.approx(1.0, abs=1e-12)
    for est, se in zip(out.estimates, out.standard_errors):
        assert abs(est - 1.0 / 3) <= 3.0 * se


def test_stationary_deterministic_for_seed():
    walk = reversible_walk(WalkKind.TURW, complete_graph(4))
    cfg = SimConfig(seed=11, trials=400, max_steps=2000, burn_in=10)
    a = simulate_stationary(walk, cfg)
    b = simulate_stationary(walk, cfg)
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.standard_errors.tobytes() == b.standard_errors.tobytes()


def test_stationary_seed_changes_output():
    walk = reversible_walk(WalkKind.TURW, complete_graph(4))
    a = simulate_stationary(walk, SimConfig(seed=1, trials=400, max_steps=2000))
    b = simulate_stationary(walk, SimConfig(seed=2, trials=400, max_steps=2000))
    assert not np.array_equal(a.estimates, b.estimates)


def test_hitting_complete_graph():
    walk = reversible_walk(WalkKind.TURW, complete_graph(5))
    cfg = SimConfig(seed=3, trials=4000, max_steps=10_000)
    out = simulate_hitting(walk, 0, 1, cfg)
    assert out.truncated == 0
    assert abs(out.estimates[0] - 4.0) <= 3.0 * out.standard_errors[0]


def test_hitting_rejects_equal_endpoints():
    walk = reversible_walk(WalkKind.TURW, complete_graph(4))
    with pytest.raises(InvalidParamsError):
        simulate_hitting(walk, 2, 2, SimConfig(seed=0, trials=10))
    with pytest.raises(InvalidParamsError):
        simulate_hitting(walk, 0, 9, SimConfig(seed=0, trials=10))


def test_hitting_truncation_withholds_estimate():
    # A cap of one step truncates almost every trial on the rose graph, so
    # the point estimate must be withheld while the bounds stay available.
    g = make_rose(RoseSpec(m=3))
    walk = reversible_walk(WalkKind.TURW, g)
    cfg = SimConfig(seed=5, trials=200, max_steps=1)
    out = simulate_hitting(walk, 3, 0, cfg)
    assert out.truncated > 0
    assert out.truncated_fraction > 0.001
    assert np.isnan(out.estimates[0])
    assert out.estimate_cap_bound <= 1.0
    assert out.truncated + out.samples == cfg.trials


def test_hitting_deterministic_for_seed():
    walk = reversible_walk(WalkKind.TURW, complete_graph(4))
    cfg = SimConfig(seed=9, trials=500, max_steps=1000)
    a = simulate_hitting(walk, 0, 2, cfg)
    b = simulate_hitting(walk, 0, 2, cfg)
    assert a.estimates[0] == b.estimates[0]
    assert a.standard_errors[0] == b.standard_errors[0]


def test_rng_metadata_present():
    walk = reversible_walk(WalkKind.TURW, complete_graph(3))
    out = simulate_stationary(walk, SimConfig(seed=0, trials=100, max_steps=500))
    assert "PCG64" in out.rng["algorithm"]


def test_step_matches_row_cdf_inverse():
    # Reference: invert each walker's own row CDF, one walker at a time.
    walk = reversible_walk(WalkKind.NBCRW, gen_ba(60, 2, 3))
    p = walk.transition().p
    rng = np.random.default_rng(0)
    nodes = rng.integers(0, 60, size=2000)
    u = rng.random(2000)
    expected = [np.searchsorted(np.cumsum(p[v]), x, side="right") for v, x in zip(nodes, u)]
    assert np.array_equal(_stepper(walk)(nodes, u), expected)


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "below-one"])
def test_extreme_draws_stay_on_positive_arcs(u):
    # The rows of the rose m=2 NBCRW P have zero-probability entries around
    # their arcs, and node + u rounds up to node + 1 for u just below one.
    walk = reversible_walk(WalkKind.NBCRW, make_rose(RoseSpec(m=2)))
    p = walk.transition().p
    nodes = np.arange(p.shape[0])
    nxt = _stepper(walk)(nodes, np.full(nodes.size, u))
    assert np.all(p[nodes, nxt] > 0.0)



def test_underflowed_weight_is_no_arc():
    # x_1 x_2 underflows to 0 while s_1 = x_1 (x_0 + x_2) > 0: the arc 1 -> 2
    # has p = 0, and it is the last of its row, where a draw of u just below
    # one lands.
    walk = ReversibleWalk(WalkKind.TURW, complete_graph(3), [1.0, 1e-200, 1e-200])
    assert walk.transition().p[1, 2] == 0.0
    nodes = np.array([1, 1, 2, 2])
    u = np.array([0.0, np.nextafter(1.0, 0.0)] * 2)
    assert _stepper(walk)(nodes, u).tolist() == [0, 0, 0, 0]

def test_stationary_memory_does_not_grow_with_steps():
    walk = reversible_walk(WalkKind.NBCRW, make_rose(RoseSpec(m=2)))
    cfg = SimConfig(seed=1, max_steps=1_000_000)
    simulate_stationary(walk, SimConfig(seed=0, max_steps=10_000))
    tracemalloc.start()
    try:
        simulate_stationary(walk, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_partly_truncated_trials_are_all_accounted():
    walk = reversible_walk(WalkKind.TURW, make_rose(RoseSpec(m=3)))
    cfg = SimConfig(seed=5, trials=300, max_steps=6)
    out = simulate_hitting(walk, 3, 0, cfg)
    assert 0 < out.truncated < cfg.trials
    assert out.truncated + out.samples == cfg.trials
    assert out.estimate_excluding_truncated < out.estimate_cap_bound <= cfg.max_steps
