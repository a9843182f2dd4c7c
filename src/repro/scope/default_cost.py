"""The hand-crafted cost model CLEO replaces (§2.4).

:func:`op_cost` mimics SCOPE's default model: a weighted sum of
estimated statistics with per-operator constants "developed over many
years" — i.e., drawn once per (cluster, operator) and systematically
wrong for the simulated world — evaluated at a *fixed assumed partition
count* (the paper notes optimizers typically cost with a fixed degree
of parallelism, §6.4) and blind to pipeline context, input-specific
multipliers and job parameters. Its estimates land within the paper's
observed spread: ~100x under- to ~1000x over-estimation.

The operator log prices every operator twice: from the estimated
cardinalities the optimizer saw (``cost_default``), and from the true
ones (``cost_default_truecard``), which reproduces the Figure 1(b)
dotted lines / §6.4 finding that fixing cardinalities alone does not
fix cost estimates.
"""
from __future__ import annotations

import functools
import math

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


def op_cost(cluster: str, op: str, i: float, c: float, row_len: float) -> float:
    """SCOPE-like default cost (exclusive, seconds) of an ``op`` with
    input and output cardinalities ``i`` and ``c`` and row length
    ``row_len``."""
    a, b = _hand_coeffs(cluster, op)
    work = (a * i + b * c) * row_len / WORK_UNIT
    # No scheduling-overhead term: the hand-crafted model predates the
    # container-provisioning costs of the current runtime.
    return work / FIXED_PARTITIONS
