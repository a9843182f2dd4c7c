"""The hand-crafted cost models CLEO replaces (§2.4).

``default_cost`` mimics SCOPE's default model: a weighted sum of
estimated statistics with per-operator constants "developed over many
years" — i.e., drawn once per (cluster, operator) and systematically
wrong for the simulated world — evaluated at a *fixed assumed partition
count* (the paper notes optimizers typically cost with a fixed degree
of parallelism, §6.4) and blind to pipeline context, input-specific
multipliers and job parameters. Its estimates land within the paper's
observed spread: ~100x under- to ~1000x over-estimation.

``tuned_cost`` is the "manually improved" variant behind a flag (§2.4):
constants much closer to the truth and partition-aware, but still using
the same estimated cardinalities and still context-blind — so it
improves the ratio distribution without fixing the correlation.

Both models take a ``true_cards=True`` flag that feeds them perfect
cardinalities, reproducing the Figure 1(b) dotted lines / §6.4 finding
that fixing cardinalities alone does not fix cost estimates.
"""
from __future__ import annotations

import functools
import math

from repro.scope.plan import PlanNode
from repro.scope.simulator import OP_COEF, OVERHEAD_PER_PARTITION, WORK_UNIT, _rng

FIXED_PARTITIONS = 250  # the default model's assumed degree of parallelism


@functools.cache
def _hand_coeffs(cluster: str, op: str, flavor: str) -> tuple[float, float]:
    """Hand-crafted (alpha, beta) constants for one operator.

    ``default``: off by a lognormal factor of sigma 1.2 with +0.8 bias
    (over-estimation dominates, Fig 1); ``tuned``: within ~e^0.35 of the
    truth — the manual improvement shifted the curve but could not model
    context or resources.
    """
    alpha, beta, _ = OP_COEF[op]
    if flavor == "default":
        g = _rng(cluster, "default-cost", op)
        return (
            alpha * math.exp(g.normal(1.4, 2.1)),
            beta * math.exp(g.normal(1.4, 2.1)),
        )
    g = _rng(cluster, "tuned-cost", op)
    return (
        alpha * math.exp(g.normal(0.5, 0.9)),
        beta * math.exp(g.normal(0.5, 0.9)),
    )


def default_cost(cluster: str, node: PlanNode, true_cards: bool = False) -> float:
    """SCOPE-like default cost of one operator (exclusive, seconds)."""
    a, b = _hand_coeffs(cluster, node.op, "default")
    i = node.true_in if true_cards else node.est_in
    c = node.true_out if true_cards else node.est_out
    work = (a * i + b * c) * node.row_len / WORK_UNIT
    # No scheduling-overhead term: the hand-crafted model predates the
    # container-provisioning costs of the current runtime.
    return work / FIXED_PARTITIONS


def tuned_cost(cluster: str, node: PlanNode, true_cards: bool = False) -> float:
    """Manually-tuned cost model (§2.4): constants re-calibrated against
    newer SKUs/operators, but still costed at the fixed assumed degree
    of parallelism and still blind to context — which is why the paper
    saw it shift the ratio curve without fixing correlation (0.04→0.10)."""
    a, b = _hand_coeffs(cluster, node.op, "tuned")
    i = node.true_in if true_cards else node.est_in
    c = node.true_out if true_cards else node.est_out
    work = (a * i + b * c) * node.row_len / WORK_UNIT
    # The manual tuning added mild DOP-awareness: the effective
    # partition count interpolates (in log space, 1:3) between the
    # actual count and the fixed assumption — enough to shift the ratio
    # curve, not enough to fix correlation (§2.4).
    p_eff = (max(node.partitions, 1) * FIXED_PARTITIONS**3) ** 0.25
    return work / p_eff + OVERHEAD_PER_PARTITION * p_eff
