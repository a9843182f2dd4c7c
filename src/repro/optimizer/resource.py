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
the model's training envelope ``[z_lo, z_hi]``. Each operator's model
comes from the bank's §5.1 look-up (:meth:`ModelBank.resolve`) of the
identity columns of its compiled table row (:func:`table_context`); the
look-up and the signatures it reads depend only on the operator's
subtree, so the planner resolves each distinct subtree of a template's
candidates once (``cascades.CleoPlanner``). :func:`row_curves` folds
resolved models with one instance's statistics, which change each
curve's ``a`` and ``θ_P``, into arrays (:class:`CostCurves`), one curve
per table row (:func:`fold_curves`). The planner and Fig 17 both fold
each row once and gather the curves to their plans' operators. A
stage's resource-context is the slice of them for its operators. Every
planning decision reads the curves: sampling, the analytical optimum,
the planner's acceptance check and the plan's final cost.

The analytical model sums the θs across the stage's operators and
differentiates: ``P* = sqrt(Σθ_P / Σθ_C)`` when both sums are positive,
the maximum when increasing P is free, and the minimum when it only
hurts (the three cases of §5.3). :func:`analytical_optima` and
:func:`stage_costs` take many stages at once, as consecutive runs of
curve rows described by a :class:`Stages` (per-stage lengths and the
gathers they imply, built once per stage layout), so the planner prices
every explored stage of every candidate plan of a job instance in one
array pass. :func:`optimize_stage_analytical` and :func:`stage_costs_at`
are their one-stage case. Model look-ups are counted — one per covered
operator per distinct partition count priced, one per covered operator
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
from repro.scope.plan import PlanTable
from repro.scope.simulator import RowStats

MAX_P = 3000  # maximum machines on a virtual cluster (§6.5)
RANDOM_SAMPLES_SEED = 42  # seed of random_samples' draw

# Features free of P: they fold into the curve's constant ``a``.
_FREE_INDEX = np.array([
    j for j in range(len(ALL_FEATURE_NAMES))
    if j != P_FEATURE_INDEX and j not in P_INVERSE_INDEX
])


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


def table_context(table: PlanTable) -> dict[str, list | np.ndarray]:
    """The identity columns and operator names of every row of
    ``table`` (for :meth:`ModelBank.resolve`), and the context features
    ``in_hash``, ``cl`` and ``depth`` as float arrays."""
    ident = table.identity()
    return {**ident, "op": table.op,
            **{c: np.array(ident[c], dtype=float) for c in ("in_hash", "cl", "depth")}}


def fold_curves(models: tuple[np.ndarray, ...], cols: Mapping[str, Sequence]) -> CostCurves:
    """Fold resolved models (:meth:`ModelBank.resolve`) into the curves
    of the operators in ``cols``: one entry per operator in each of the
    feature inputs (I, B, C, L, pm as numpy arrays; in_hash, cl,
    depth)."""
    coef, intercept, z_lo, z_hi, covered = models
    # At P = 1 a per-partition feature equals its numerator g(I,C,L).
    terms = coef * feature_matrix({**cols, "P": np.ones(len(covered))}, context=True)
    theta_p = np.zeros(len(covered))
    for col in terms.T[P_INVERSE_INDEX]:
        theta_p += col
    return CostCurves(
        a=intercept + terms[:, _FREE_INDEX].sum(axis=1),
        theta_p=theta_p,
        theta_c=coef[:, P_FEATURE_INDEX],
        z_lo=z_lo, z_hi=z_hi, covered=covered,
    )


def row_curves(models: tuple[np.ndarray, ...], context: Mapping[str, Sequence],
               stats: RowStats, pm: float) -> CostCurves:
    """The cost curves of every table row, from the models resolved for
    its ``context`` (:func:`table_context`) and the statistics the
    optimizer sees in ``stats``: the estimated cardinalities. The
    statistics the curves read do not depend on partition counts."""
    est_in, est_base, est_out, row_len = np.array(
        [stats.est_in, stats.est_base, stats.est_out, stats.row_len])
    return fold_curves(models, {
        "I": est_in, "B": est_base, "C": est_out, "L": row_len,
        "pm": np.full(len(est_in), pm),
        "in_hash": context["in_hash"], "cl": context["cl"], "depth": context["depth"],
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
    counter.lookups += np.count_nonzero(curves.covered) * p.shape[-1]
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

def geometric_samples(s: float) -> list[int]:
    """x_{i+1} = ceil(x_i + x_i / s), x_0 = 1, x_1 = 2 (§5.3), up to ``MAX_P``."""
    out = [1, 2]
    while out[-1] < MAX_P:
        nxt = math.ceil(out[-1] + out[-1] / s)
        if nxt > MAX_P:
            break
        out.append(nxt)
    return out


def geometric_samples_n(n: int) -> list[int]:
    """A geometric ladder with ~n samples: binary-search the skipping
    coefficient so the ladder reaches ``MAX_P`` in n steps."""
    n = max(2, n)
    lo, hi = 0.3, 200.0
    for _ in range(40):
        s = (lo + hi) / 2
        k = len(geometric_samples(s))
        if k < n:
            lo = s
        else:
            hi = s
    return geometric_samples(hi)[:n]


def uniform_samples(n: int) -> list[int]:
    return sorted({int(round(x)) for x in np.linspace(1, MAX_P, max(2, n))})


def random_samples(n: int) -> list[int]:
    g = np.random.default_rng(RANDOM_SAMPLES_SEED)
    return sorted({1, *map(int, g.integers(1, MAX_P + 1, max(1, n - 1)))})


# ---------------------------------------------------------------------------
# Stage-level exploration + optimization, over stages' resource-contexts
# ---------------------------------------------------------------------------
# Many stages are passed as one CostCurves whose rows are the stages'
# operators, stage after stage, with the ``Stages`` of their lengths,
# which a planner computes once per layout.

@dataclass
class Stages:
    """Consecutive runs of curve rows, ``lengths[s]`` rows for stage
    ``s``, with the gathers :func:`stage_sums` and :func:`stage_costs`
    read: each row's stage, and ``index[k, s]``, the ``k``-th row of
    stage ``s``, for ``k`` up to the longest stage (``dead`` marks the
    padding of shorter stages)."""

    lengths: np.ndarray
    row_stage: np.ndarray
    index: np.ndarray
    dead: np.ndarray | None  # None when every stage is as long as the longest

    @staticmethod
    def of(lengths: np.ndarray) -> "Stages":
        lengths = np.asarray(lengths)
        width = np.arange(int(lengths.max(initial=0)))
        live = width < lengths[:, None]
        index = np.where(live, (np.cumsum(lengths) - lengths)[:, None] + width, 0)
        return Stages(lengths, np.repeat(np.arange(len(lengths)), lengths), index.T,
                      None if live.all() else ~live.T)


def stage_sums(x: np.ndarray, st: Stages) -> np.ndarray:
    """Sum of each stage's rows of ``x``, added in row order from 0.

    That order is what ``ndarray.sum()`` uses for fewer than 8 terms and
    what ``.sum(axis=0)`` uses on a block of several columns, so a stage
    sums to the same bits as when it is priced alone (Exchange stages
    have 1-4 operators). ``np.add.reduceat`` pairs the terms of a segment
    differently and does not reproduce those bits. Shorter stages add
    0.0 past their end, which changes no sum."""
    rows = x[st.index]
    if st.dead is not None:
        rows[st.dead] = 0.0
    out = np.zeros((len(st.lengths),) + x.shape[1:])
    for row in rows:
        out += row
    return out


def analytical_optima(
    curves: CostCurves, st: Stages, counter: LookupCounter
) -> np.ndarray:
    """The closed-form optimum of §5.3 of every stage, from its summed
    curve weights."""
    counter.lookups += np.count_nonzero(curves.covered)
    sums = stage_sums(np.array([curves.theta_p, curves.theta_c]).T, st)
    sum_tp, sum_tc = sums.T
    pos_tp, pos_tc = (sums > 0).T
    # Off the interior p_star is 1: without Σθ_P > 0 more partitions
    # only hurt, or the learned weights carry no partition signal. With
    # Σθ_P > 0 and Σθ_C <= 0 they never hurt: the maximum.
    p_star = np.rint(np.sqrt(np.divide(sum_tp, sum_tc, out=np.ones_like(sum_tp),
                                       where=pos_tp & pos_tc)))
    p = np.where(pos_tp > pos_tc, MAX_P, p_star)
    return np.minimum(np.maximum(p, 1), MAX_P).astype(int)


def stage_costs(
    curves: CostCurves, st: Stages, partitions: np.ndarray, counter: LookupCounter,
) -> np.ndarray:
    """Total predicted cost of each stage (rows of ``partitions``) at
    each of its partition counts (columns). A count a stage lists twice
    is one look-up per covered operator."""
    p = np.asarray(partitions, dtype=float)
    ordered = np.sort(p, axis=1)
    distinct = 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
    counter.lookups += int(distinct[st.row_stage[curves.covered]].sum())
    return stage_sums(_costs_at(curves, p[st.row_stage]), st)


def _one_stage(ctx: CostCurves) -> Stages:
    return Stages.of(np.array([len(ctx.a)]))


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


def optimize_stage_analytical(ctx: CostCurves, counter: LookupCounter) -> int:
    """The closed-form optimum of §5.3 of one stage."""
    return int(analytical_optima(ctx, _one_stage(ctx), counter)[0])
