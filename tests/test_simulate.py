"""Monte Carlo walker: determinism, truncation accounting, statistical checks."""

from __future__ import annotations

import numpy as np
import pytest

from nbwalk import (
    InvalidParamsError, RoseSpec, SimConfig, WalkKind, make_rose, simulate_hitting,
    simulate_stationary, transition,
)

from conftest import complete_graph


def test_config_validation():
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, trials=0)
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, max_steps=0)
    with pytest.raises(InvalidParamsError):
        SimConfig(seed=0, burn_in=-1)


def test_stationary_triangle_within_three_se():
    p = transition(WalkKind.TURW, complete_graph(3))
    cfg = SimConfig(seed=7, trials=10_000, max_steps=30_000, burn_in=100)
    out = simulate_stationary(p, cfg)
    assert out.mode == "stationary"
    assert out.estimates.sum() == pytest.approx(1.0, abs=1e-12)
    for est, se in zip(out.estimates, out.standard_errors):
        assert abs(est - 1.0 / 3) <= 3.0 * se


def test_stationary_deterministic_for_seed():
    p = transition(WalkKind.TURW, complete_graph(4))
    cfg = SimConfig(seed=11, trials=400, max_steps=2000, burn_in=10)
    a = simulate_stationary(p, cfg)
    b = simulate_stationary(p, cfg)
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.standard_errors.tobytes() == b.standard_errors.tobytes()


def test_stationary_seed_changes_output():
    p = transition(WalkKind.TURW, complete_graph(4))
    a = simulate_stationary(p, SimConfig(seed=1, trials=400, max_steps=2000))
    b = simulate_stationary(p, SimConfig(seed=2, trials=400, max_steps=2000))
    assert not np.array_equal(a.estimates, b.estimates)


def test_hitting_complete_graph():
    p = transition(WalkKind.TURW, complete_graph(5))
    cfg = SimConfig(seed=3, trials=4000, max_steps=10_000)
    out = simulate_hitting(p, 0, 1, cfg)
    assert out.truncated == 0
    assert abs(out.estimates[0] - 4.0) <= 3.0 * out.standard_errors[0]


def test_hitting_rejects_equal_endpoints():
    p = transition(WalkKind.TURW, complete_graph(4))
    with pytest.raises(InvalidParamsError):
        simulate_hitting(p, 2, 2, SimConfig(seed=0, trials=10))
    with pytest.raises(InvalidParamsError):
        simulate_hitting(p, 0, 9, SimConfig(seed=0, trials=10))


def test_hitting_truncation_withholds_estimate():
    # A cap of one step truncates almost every trial on the rose graph, so
    # the point estimate must be withheld while the bounds stay available.
    g = make_rose(RoseSpec(m=3))
    p = transition(WalkKind.TURW, g)
    cfg = SimConfig(seed=5, trials=200, max_steps=1)
    out = simulate_hitting(p, 3, 0, cfg)
    assert out.truncated > 0
    assert out.truncated_fraction > 0.001
    assert np.isnan(out.estimates[0])
    assert out.estimate_cap_bound <= 1.0
    assert out.truncated + out.samples == cfg.trials


def test_hitting_deterministic_for_seed():
    p = transition(WalkKind.TURW, complete_graph(4))
    cfg = SimConfig(seed=9, trials=500, max_steps=1000)
    a = simulate_hitting(p, 0, 2, cfg)
    b = simulate_hitting(p, 0, 2, cfg)
    assert a.estimates[0] == b.estimates[0]
    assert a.standard_errors[0] == b.standard_errors[0]


def test_rng_metadata_present():
    p = transition(WalkKind.TURW, complete_graph(3))
    out = simulate_stationary(p, SimConfig(seed=0, trials=100, max_steps=500))
    assert "PCG64" in out.rng["algorithm"]
