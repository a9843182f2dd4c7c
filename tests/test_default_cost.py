"""Tests for the hand-crafted default cost model (§2.4)."""
import numpy as np

from repro.metrics import summarize
from repro.scope import default_cost as dc


def test_hand_coeffs_cached_and_deterministic():
    a = dc._hand_coeffs("c1", "HashJoin")
    b = dc._hand_coeffs("c1", "HashJoin")
    assert a is b  # cached
    assert dc._hand_coeffs("c2", "HashJoin") != a


def test_default_cost_orders_of_magnitude_off():
    """At production scale the default model shows the Figure 1 profile:
    large median error, huge tail error, near-zero correlation."""
    from repro.experiments.common import get_logs

    ops, _ = get_logs("cluster4")
    s = summarize(ops.cost_default.to_numpy(), ops.actual.to_numpy())
    assert s["median_error_pct"] > 60
    assert s["p95_error_pct"] > 400
    assert abs(s["correlation"]) < 0.6


def test_default_ratio_spread_both_directions():
    """Figure 1: both under- and over-estimation tails."""
    from repro.experiments.common import get_logs

    ops, _ = get_logs("cluster4")
    r = (ops.cost_default / ops.actual.clip(lower=1e-9)).to_numpy()
    assert np.quantile(r, 0.02) < 0.3
    assert np.quantile(r, 0.98) > 8


def test_truecard_variant_still_inaccurate(tiny):
    """§6.4: perfect cardinalities do not fix the cost model."""
    _, ops, _ = tiny
    s = summarize(ops.cost_default_truecard.to_numpy(), ops.actual.to_numpy())
    assert s["median_error_pct"] > 40


def test_costs_positive(tiny):
    _, ops, _ = tiny
    assert (ops.cost_default > 0).all()
