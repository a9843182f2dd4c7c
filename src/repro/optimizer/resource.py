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
the model's training envelope ``[z_lo, z_hi]``. :func:`resolve_plan`
resolves each operator's model of a physical plan through the bank's
§5.1 look-up (:meth:`ModelBank.resolve`); the look-up and the
signatures it reads depend only on the template and its physical
choices (:class:`PlanModels`). :func:`instance_curves` folds them
(:func:`fold_curves`) with one instance's statistics, which change
each curve's ``a`` and ``θ_P``, into arrays (:class:`CostCurves`); a
stage's resource-context is the slice of them for its operators.
Every planning decision reads the curves: sampling, the analytical
optimum, the planner's acceptance check and the plan's final cost.

The analytical model sums the θs across the stage's operators and
differentiates: ``P* = sqrt(Σθ_P / Σθ_C)`` when both sums are positive,
the maximum when increasing P is free, and the minimum when it only
hurts (the three cases of §5.3). :func:`analytical_optima` and
:func:`stage_costs` take many stages at once, as consecutive runs of
curve rows with per-stage lengths, so the planner prices every explored
stage of every candidate plan of a job instance in one array pass;
:func:`optimize_stage_analytical` and :func:`stage_costs_at` are their
one-stage case. Model look-ups are counted — one per covered operator
per distinct partition count priced, one per covered operator for the
analytical model — so the Fig 8c / Fig 17 efficiency comparison can be
reproduced.
"""
from __future__ import annotations

import itertools
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

    @staticmethod
    def concat(plans: Sequence["PlanModels"]) -> "PlanModels":
        """The operators of ``plans``, one plan after another."""
        return PlanModels(
            {k: list(itertools.chain.from_iterable(p.ident[k] for p in plans))
             for k in plans[0].ident},
            tuple(np.concatenate(cols) for cols in zip(*(p.models for p in plans))),
        )


def resolve_plan(bank: ModelBank, root: PlanNode) -> PlanModels:
    """Signatures and resolved models of every operator of a physical
    plan, in ``root.walk()`` order."""
    ident = plan_identity(root)
    ident["op"] = [n.op for n in root.walk()]
    models = bank.resolve(ident)
    for a in models:
        a.flags.writeable = False
    return PlanModels(ident, models)


def fold_curves(models: tuple[np.ndarray, ...], cols: Mapping[str, Sequence]) -> CostCurves:
    """Fold resolved models (:meth:`ModelBank.resolve`) into the curves
    of the operators in ``cols``: one entry per operator in each of the
    feature inputs (I, B, C, L, pm as numpy arrays; in_hash, cl,
    depth)."""
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


def instance_curves(plan: PlanModels, nodes: list[PlanNode], pm: float) -> CostCurves:
    """The cost curves of an instantiated plan's ``nodes`` (in
    ``root.walk()`` order) from the statistics the optimizer sees (the
    estimated cardinalities) and the plan's resolved models."""
    return fold_curves(plan.models, {
        **plan.ident,
        "I": np.array([n.est_in for n in nodes]),
        "B": np.array([n.est_base for n in nodes]),
        "C": np.array([n.est_out for n in nodes]),
        "L": np.array([n.row_len for n in nodes]),
        "pm": np.full(len(nodes), pm),
    })


def _costs_at(curves: CostCurves, p: np.ndarray) -> np.ndarray:
    z = curves.a[:, None] + curves.theta_p[:, None] / p + curves.theta_c[:, None] * p
    # np.clip's bits, without its per-call overhead: max, then min.
    z = np.minimum(np.maximum(z, curves.z_lo[:, None]), curves.z_hi[:, None])
    z = np.minimum(np.maximum(z, -30.0), 30.0)
    return np.where(curves.covered[:, None], np.expm1(z), 0.0)


def predict_costs_at(
    curves: CostCurves, partitions: np.ndarray, counter: LookupCounter
) -> np.ndarray:
    """Predicted cost of each operator (rows) at each partition count
    (columns). ``partitions`` is a 1-D array of counts shared by every
    operator, or a column holding one count per operator."""
    p = np.asarray(partitions, dtype=float)
    counter.lookups += int(curves.covered.sum()) * p.shape[-1]
    return _costs_at(curves, p)


def exploration_window(p_def: int | np.ndarray) -> tuple:
    """The partition counts a stage may explore around its heuristic
    count ``p_def``: from a third of it to three times it. The learned
    models were trained near the logged counts, so counts far outside
    that envelope are priced blindly (their log-space predictions are
    clipped); restricting the window is the kind of regression guard
    §6.7 describes for production. The full-range §5.3 cases are
    exercised by the Fig 17 experiment. ``p_def`` may be an array of
    counts: one window per entry."""
    return np.maximum(1, p_def // 3), np.minimum(MAX_P, 3 * p_def)


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
# Stage-level exploration + optimization, over stages' resource-contexts
# ---------------------------------------------------------------------------
# Many stages are passed as one CostCurves whose rows are the stages'
# operators, stage after stage, with ``lengths`` operators per stage.

def stage_sums(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each stage's rows of ``x``, added in row order from 0.

    That order is what ``ndarray.sum()`` uses for fewer than 8 terms and
    what ``.sum(axis=0)`` uses on a block of several columns, so a stage
    sums to the same bits as when it is priced alone (Exchange stages
    have 1-4 operators). ``np.add.reduceat`` pairs the terms of a segment
    differently and does not reproduce those bits. Shorter stages add
    0.0 past their end, which changes no sum."""
    width = np.arange(int(lengths.max(initial=0)))
    live = width < lengths[:, None]
    rows = x[np.where(live, (np.cumsum(lengths) - lengths)[:, None] + width, 0)]
    rows[~live] = 0.0
    out = np.zeros((len(lengths),) + x.shape[1:])
    for k in width.tolist():
        out += rows[:, k]
    return out


def analytical_optima(
    curves: CostCurves, lengths: np.ndarray, counter: LookupCounter, p_max: int = MAX_P
) -> np.ndarray:
    """The closed-form optimum of §5.3 of every stage, from its summed
    curve weights."""
    counter.lookups += int(curves.covered.sum())
    sum_tp, sum_tc = stage_sums(np.column_stack([curves.theta_p, curves.theta_c]), lengths).T
    interior = (sum_tp > 0) & (sum_tc > 0)
    p_star = np.rint(np.sqrt(np.divide(sum_tp, sum_tc, out=np.ones_like(sum_tp), where=interior)))
    # With Σθ_P > 0 and Σθ_C <= 0 more partitions never hurt: the
    # maximum. Without Σθ_P > 0 they only hurt, or the learned weights
    # carry no partition signal: 1.
    p = np.where(sum_tp > 0, np.where(sum_tc > 0, p_star, p_max), 1)
    return np.minimum(np.maximum(p, 1), p_max).astype(int)


def stage_costs(
    curves: CostCurves, lengths: np.ndarray, partitions: np.ndarray,
    counter: LookupCounter,
) -> np.ndarray:
    """Total predicted cost of each stage (rows of ``partitions``) at
    each of its partition counts (columns). A count a stage lists twice
    is one look-up per covered operator."""
    p = np.asarray(partitions, dtype=float)
    distinct = 1 + (np.diff(np.sort(p, axis=1), axis=1) != 0).sum(axis=1)
    counter.lookups += int(np.repeat(distinct, lengths)[curves.covered].sum())
    return stage_sums(_costs_at(curves, np.repeat(p, lengths, axis=0)), lengths)


def _one_stage(ctx: CostCurves) -> np.ndarray:
    return np.array([len(ctx.a)])


def stage_costs_at(
    ctx: CostCurves, partitions: np.ndarray, counter: LookupCounter
) -> np.ndarray:
    """Total predicted stage cost at each candidate partition count."""
    return stage_costs(ctx, _one_stage(ctx), np.asarray(partitions)[None, :], counter)[0]


def optimize_stage_sampling(
    ctx: CostCurves, candidates: list[int], counter: LookupCounter
) -> int:
    """Partition optimization over an explicit candidate set."""
    cand = np.array(sorted(set(candidates)), dtype=float)
    return int(cand[int(np.argmin(stage_costs_at(ctx, cand, counter)))])


def optimize_stage_analytical(
    ctx: CostCurves, counter: LookupCounter, p_max: int = MAX_P
) -> int:
    """The closed-form optimum of §5.3 of one stage."""
    return int(analytical_optima(ctx, _one_stage(ctx), counter, p_max)[0])
