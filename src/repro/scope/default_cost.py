"""The hand-crafted cost model CLEO replaces (§2.4).

``default_cost`` mimics SCOPE's default model: a weighted sum of
estimated statistics with per-operator constants "developed over many
years" — i.e., drawn once per (cluster, operator) and systematically
wrong for the simulated world — evaluated at a *fixed assumed partition
count* (the paper notes optimizers typically cost with a fixed degree
of parallelism, §6.4) and blind to pipeline context, input-specific
multipliers and job parameters. Its estimates land within the paper's
observed spread: ~100x under- to ~1000x over-estimation.

A ``true_cards=True`` flag feeds it perfect cardinalities, reproducing
the Figure 1(b) dotted lines / §6.4 finding that fixing cardinalities
alone does not fix cost estimates.
"""
from __future__ import annotations

import functools
import math

from repro.scope.plan import PlanNode
from repro.scope.simulator import OP_COEF, WORK_UNIT, _rng

FIXED_PARTITIONS = 250  # the default model's assumed degree of parallelism


@functools.cache
def _hand_coeffs(cluster: str, op: str) -> tuple[float, float]:
    """Hand-crafted (alpha, beta) constants for one operator: the true
    ones off by a lognormal factor of sigma 2.1 with +1.4 bias
    (over-estimation dominates, Fig 1)."""
    alpha, beta, _ = OP_COEF[op]
    g = _rng(cluster, "default-cost", op)
    return (
        alpha * math.exp(g.normal(1.4, 2.1)),
        beta * math.exp(g.normal(1.4, 2.1)),
    )


def default_cost(cluster: str, node: PlanNode, true_cards: bool = False) -> float:
    """SCOPE-like default cost of one operator (exclusive, seconds)."""
    if true_cards:
        return op_cost(cluster, node.op, node.true_in, node.true_out, node.row_len)
    return op_cost(cluster, node.op, node.est_in, node.est_out, node.row_len)


def op_cost(cluster: str, op: str, i: float, c: float, row_len: float) -> float:
    """:func:`default_cost` of an ``op`` with input and output
    cardinalities ``i`` and ``c`` and row length ``row_len``."""
    a, b = _hand_coeffs(cluster, op)
    work = (a * i + b * c) * row_len / WORK_UNIT
    # No scheduling-overhead term: the hand-crafted model predates the
    # container-provisioning costs of the current runtime.
    return work / FIXED_PARTITIONS
