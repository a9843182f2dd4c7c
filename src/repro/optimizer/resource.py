"""Resource-aware partition exploration (§5.2-§5.3).

The paper extends Cascades with three abstractions:

- a **resource-context** per stage, to which each operator attaches its
  learned partition-cost information during *partition exploration*;
- **partition exploration**: candidate partition counts are scored with
  the learned models — either by *sampling* (random / uniform /
  geometric candidate sets) or *analytically*;
- **partition optimization**: at the stage boundary, the partitioning
  operator picks the count minimizing the stage's total predicted cost.

The partition-cost information is a curve. Every Table 2/3 feature is
free of the partition count P, of the form ``g(I,C,L)/P``, or ``P``
itself, so with an operator's other statistics fixed, the log-cost its
linear model predicts is exactly ``a + θ_P / P + θ_C · P``, clipped to
the model's training envelope ``[z_lo, z_hi]``. :func:`plan_cost_curves`
resolves each operator's model once per candidate plan, through the
bank's §5.1 look-up (:meth:`ModelBank.resolve`), and folds it into
these arrays (:class:`CostCurves`); a stage's resource-context is
the slice of them for its operators. The look-up and the signatures it
reads depend only on the template and its physical choices
(:class:`PlanModels`, from :func:`resolve_plan`); only the statistics,
and with them each curve's ``a`` and ``θ_P``, change per instance
(:func:`instance_curves`). Every planning decision reads the
curves: sampling, the analytical optimum, the planner's acceptance
check and the plan's final cost.

The analytical model sums the θs across the stage's operators and
differentiates: ``P* = sqrt(Σθ_P / Σθ_C)`` when both sums are positive,
the maximum when increasing P is free, and the minimum when it only
hurts (the three cases of §5.3). Model look-ups are counted — one per
covered operator per partition count priced, one per covered operator
for the analytical model — so the Fig 8c / Fig 17 efficiency comparison
can be reproduced.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.features import (
    ALL_FEATURE_NAMES,
    P_FEATURE_INDEX,
    P_INVERSE_INDEX,
    feature_matrix,
)
from repro.core.models import ModelBank
from repro.scope.plan import PlanNode, plan_identity

MAX_P = 3000  # maximum machines on a virtual cluster (§6.5)

# Features free of P: they fold into the curve's constant ``a``.
_FREE_INDEX = [
    j for j in range(len(ALL_FEATURE_NAMES))
    if j != P_FEATURE_INDEX and j not in P_INVERSE_INDEX
]


@dataclass
class LookupCounter:
    """Counts learned-model invocations during planning (Fig 8c)."""

    lookups: int = 0


@dataclass
class CostCurves:
    """Partition-cost curves of a list of operators (§5.2).

    Operator ``i`` costs ``expm1(clip(a[i] + theta_p[i] / P + theta_c[i]
    * P, z_lo[i], z_hi[i]))`` at ``P`` partitions, or 0 where no model
    covers it (``covered[i]`` false)."""

    a: np.ndarray
    theta_p: np.ndarray
    theta_c: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    covered: np.ndarray

    def __getitem__(self, idx) -> "CostCurves":
        """The curves of the operators at ``idx``, e.g. one stage's."""
        return CostCurves(self.a[idx], self.theta_p[idx], self.theta_c[idx],
                          self.z_lo[idx], self.z_hi[idx], self.covered[idx])


@dataclass
class PlanModels:
    """The template-level half of a plan's cost curves: its
    :func:`plan_identity` columns plus operator names (``ident``), and
    each operator's resolved model, ``(coef, intercept, z_lo, z_hi,
    covered)`` from :meth:`ModelBank.resolve`. The arrays are read-only,
    so a planner can share them between instances."""

    ident: dict[str, list]
    models: tuple[np.ndarray, ...]


def resolve_plan(bank: ModelBank, root: PlanNode) -> PlanModels:
    """Signatures and resolved models of every operator of a physical
    plan, in ``root.walk()`` order."""
    ident = plan_identity(root)
    ident["op"] = [n.op for n in root.walk()]
    models = bank.resolve(ident)
    for a in models:
        a.flags.writeable = False
    return PlanModels(ident, models)


def _fold(models: tuple[np.ndarray, ...], cols: Mapping[str, Sequence]) -> CostCurves:
    """Fold resolved models into the curves of the operators in ``cols``."""
    coef, intercept, z_lo, z_hi, covered = models
    # At P = 1 a per-partition feature equals its numerator g(I,C,L).
    terms = coef * feature_matrix({**cols, "P": np.ones(len(covered))}, context=True)
    theta_p = np.zeros(len(covered))
    for j in P_INVERSE_INDEX:
        theta_p += terms[:, j]
    return CostCurves(
        a=intercept + terms[:, _FREE_INDEX].sum(axis=1),
        theta_p=theta_p,
        theta_c=coef[:, P_FEATURE_INDEX],
        z_lo=z_lo, z_hi=z_hi, covered=covered,
    )


def cost_curves(bank: ModelBank, cols: Mapping[str, Sequence]) -> CostCurves:
    """Resolve the model of each operator in ``cols``
    (:meth:`ModelBank.resolve`) and fold it into its curve. ``cols``
    holds one entry per operator in each of the feature inputs (I, B,
    C, L, pm as numpy arrays; in_hash, cl, depth) and the family keys
    (sig_sub, sig_approx, sig_opinput, op)."""
    return _fold(bank.resolve(cols), cols)


def instance_curves(plan: PlanModels, nodes: list[PlanNode], pm: float) -> CostCurves:
    """The cost curves of an instantiated plan's ``nodes`` (in
    ``root.walk()`` order) from the statistics the optimizer sees (the
    estimated cardinalities) and the plan's resolved models."""
    return _fold(plan.models, {
        **plan.ident,
        "I": np.array([n.est_in for n in nodes]),
        "B": np.array([n.est_base for n in nodes]),
        "C": np.array([n.est_out for n in nodes]),
        "L": np.array([n.row_len for n in nodes]),
        "pm": np.full(len(nodes), pm),
    })


def plan_cost_curves(
    bank: ModelBank, root: PlanNode, pm: float
) -> tuple[list[PlanNode], CostCurves]:
    """The nodes of an instantiated plan in ``root.walk()`` order and
    their cost curves."""
    nodes = list(root.walk())
    return nodes, instance_curves(resolve_plan(bank, root), nodes, pm)


def predict_costs_at(
    curves: CostCurves, partitions: np.ndarray, counter: LookupCounter
) -> np.ndarray:
    """Predicted cost of each operator (rows) at each partition count
    (columns). ``partitions`` is a 1-D array of counts shared by every
    operator, or a column holding one count per operator."""
    p = np.asarray(partitions, dtype=float)
    z = curves.a[:, None] + curves.theta_p[:, None] / p + curves.theta_c[:, None] * p
    z = np.clip(np.clip(z, curves.z_lo[:, None], curves.z_hi[:, None]), -30.0, 30.0)
    counter.lookups += int(curves.covered.sum()) * p.shape[-1]
    return np.where(curves.covered[:, None], np.expm1(z), 0.0)


# ---------------------------------------------------------------------------
# Candidate generators (§5.3 sampling-based approach)
# ---------------------------------------------------------------------------

def geometric_samples(s: float, p_max: int = MAX_P) -> list[int]:
    """x_{i+1} = ceil(x_i + x_i / s), x_0 = 1, x_1 = 2 (§5.3)."""
    out = [1, 2]
    while out[-1] < p_max:
        nxt = math.ceil(out[-1] + out[-1] / s)
        if nxt > p_max:
            break
        out.append(nxt)
    return out


def geometric_samples_n(n: int, p_max: int = MAX_P) -> list[int]:
    """A geometric ladder with ~n samples: binary-search the skipping
    coefficient so the ladder reaches p_max in n steps."""
    n = max(2, n)
    lo, hi = 0.3, 200.0
    for _ in range(40):
        s = (lo + hi) / 2
        k = len(geometric_samples(s, p_max))
        if k < n:
            lo = s
        else:
            hi = s
    return geometric_samples(hi, p_max)[:n]


def uniform_samples(n: int, p_max: int = MAX_P) -> list[int]:
    return sorted({int(round(x)) for x in np.linspace(1, p_max, max(2, n))})


def random_samples(n: int, p_max: int = MAX_P, seed: int = 0) -> list[int]:
    g = np.random.default_rng(seed)
    return sorted({1, *map(int, g.integers(1, p_max + 1, max(1, n - 1)))})


# ---------------------------------------------------------------------------
# Stage-level exploration + optimization, over a stage's resource-context
# ---------------------------------------------------------------------------

def stage_costs_at(
    ctx: CostCurves, partitions: np.ndarray, counter: LookupCounter
) -> np.ndarray:
    """Total predicted stage cost at each candidate partition count."""
    return predict_costs_at(ctx, partitions, counter).sum(axis=0)


def optimize_stage_sampling(
    ctx: CostCurves, candidates: list[int], counter: LookupCounter
) -> int:
    """Partition optimization over an explicit candidate set."""
    cand = np.array(sorted(set(candidates)), dtype=float)
    return int(cand[int(np.argmin(stage_costs_at(ctx, cand, counter)))])


def optimize_stage_analytical(
    ctx: CostCurves, counter: LookupCounter, p_max: int = MAX_P
) -> int:
    """The closed-form optimum of §5.3 from the summed curve weights."""
    counter.lookups += int(ctx.covered.sum())
    sum_tp = float(ctx.theta_p.sum())
    sum_tc = float(ctx.theta_c.sum())
    if sum_tp > 0 and sum_tc <= 0:
        return p_max  # more partitions never hurt
    if sum_tp <= 0 and sum_tc > 0:
        return 1  # more partitions only hurt
    if sum_tp > 0 and sum_tc > 0:
        return int(np.clip(round(math.sqrt(sum_tp / sum_tc)), 1, p_max))
    return 1  # degenerate: no partition signal in the learned weights
