"""Cascades-style physical planning with pluggable cost models (§5).

:class:`Planner` holds the one candidate loop, SCOPE's *Optimize
Inputs* task (Fig 8a): it enumerates physical alternatives for the
logical choice points (join implementation, aggregation strategy,
optional local pre-aggregation — the §6.6.2 plan-change classes),
derives statistics and heuristic partition counts, and keeps the
candidate its cost model prices cheapest. The two planners differ only
in that cost model (``_costs``), which prices every candidate of a job
instance in one call.

A template's candidates are compiled once (:func:`candidate_plans`, kept
on the template) into a :class:`repro.scope.workload.TemplatePlans`, the
type its executed plan is compiled into as well: one table of distinct
subtrees, each candidate a run of walk-order positions into it.
Recurring candidates share every subtree below their first choice point
(Fig 9's common subexpressions, a memo of identical subexpressions as in
Cascades), so each job instance derives the statistics of a shared
subtree once (``simulator.derive_rows``), and every candidate's
partition counts in one gather (``simulator.heuristic_partitions``).
Only the chosen candidate becomes a :class:`PlanNode` tree, which holds
its partition counts and latencies (the statistics stay in the
instance's ``simulator.RowStats``), and only its execution is simulated,
after the planning clock stops.

``CleoPlanner`` costs the candidates with the learned model hierarchy
instead of the default cost model. Each distinct subtree's identity
(§5.1 signatures) is computed once per template, and its model resolved
once per template and planner. Once per job instance, the subtrees'
statistics are folded into partition-cost curves, gathered to every
candidate's operators, and a stage's operators' curves form its
resource-context (partition exploration); at the stage boundary the
partitioning operator picks the count minimizing total predicted stage
cost (partition optimization) — one array pass over every explored
stage of every candidate, over a stage layout (and its ``stage_sums``
gathers) built once per template and planner. The planner keeps the
models, context and layout per template, keyed by its compiled plans.
The plans' final costs read the same curves. A required co-partitioning
property from a join fixes the other side's exchange without
exploration (Fig 8a step 2). :class:`PlanResult` records each explored
stage of the chosen plan (:class:`ExploredStage`), the planning time and
the cost model's share of it.

``DefaultPlanner`` is the baseline: the default cost model at a fixed
assumed degree of parallelism, partition counts from the local
heuristic — i.e., SCOPE's stock behaviour.

Planning returns the chosen *executed* plan: the substrate simulator
fills actual latencies for whatever plan is chosen, using common random
numbers so two planners' choices for the same job instance are
comparable (§6.6.1). Every candidate of one job instance reads the same
substrate draws (``simulator.seeded_draws``), and :class:`PlanResult`
reports each candidate's predicted cost. A call seeds every generator
its job instance reads in one :class:`repro.scope.simulator.RngBatch`,
the candidates' seed keys (``simulator.plan_keys``): the statistics
draws of every candidate, which fill the draws up front, and one
``"lat"`` key per distinct operator of the candidates, of which the
chosen plan's latencies read their operators' slots.
Nothing drawn or seeded is kept from one call to the next.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.models import ModelBank
from repro.optimizer import resource as res
from repro.scope import default_cost as dc
from repro.scope import simulator as sim
from repro.scope.plan import (
    JOIN_OPS,
    CompiledPlans,
    PlanNode,
    choice_points,
)
from repro.scope.workload import JobTemplate, TemplatePlans

MAX_CANDIDATES = 64  # exhaustive enumeration cap (<= 2 joins x 1 agg here)
# A stage takes the explored count only if its predicted cost is below
# this share of the cost at the heuristic count: a churn guard in the
# spirit of §6.7's regression guards.
ACCEPT_MARGIN = 0.75


@dataclass
class ExploredStage:
    """The §5.3 partition search of one Exchange stage: its heuristic
    count ``p_def``, the analytical optimum ``p`` clamped to the
    exploration window, the predicted stage cost at each, and whether
    the ``ACCEPT_MARGIN`` check took ``p``."""

    tpl_op_id: str  # the stage's Exchange
    p_def: int
    p: int
    cost_p: float
    cost_def: float
    accepted: bool


@dataclass
class PlanResult:
    root: PlanNode  # chosen physical plan, with its partition counts and latencies
    choices: dict  # physical choices made
    predicted_cost: float
    lookups: int  # learned-model invocations
    # Wall-clock of planning: from the call up to the chosen plan, which
    # excludes simulating its execution; and the share of it spent in
    # the cost model (``_costs``).
    planning_seconds: float
    cost_model_seconds: float
    actual_latency: float  # simulated end-to-end latency of the choice
    cpu_seconds: float
    # predicted cost of every candidate, keyed by tuple(choices.items())
    candidate_costs: dict[tuple, float]
    # the chosen plan's explored stages, bottom-up (CLEO with exploration)
    explored: list[ExploredStage] = field(default_factory=list)


def _candidates(tpl: JobTemplate) -> list[dict]:
    points = choice_points(tpl.logical_root)
    if not points:
        return [dict(tpl.choices)]
    ids = [cid for cid, _ in points]
    alt_lists = [alts for _, alts in points]
    combos = itertools.islice(itertools.product(*alt_lists), MAX_CANDIDATES)
    return [dict(zip(ids, combo)) for combo in combos]


def candidate_plans(tpl: JobTemplate) -> TemplatePlans:
    """The template's candidate plans (:func:`_candidates`), expanded and
    compiled once and kept on the template (``JobTemplate.compiled``)."""
    return tpl.compiled("candidates", tpl.logical_root,
                        lambda: TemplatePlans.expand(tpl.logical_root, _candidates(tpl)))


@dataclass
class StageLayout:
    """The Exchange stages of plans laid end to end that explore
    partitions, bottom-up, as positions: ``rows`` lists every explored
    stage's operators, stage after stage, ``stages`` their number per
    stage (with the ``stage_sums`` gather), ``heads`` each stage's
    Exchange, ``of_plan`` each plan's stages, and ``pin_pos`` the
    Exchanges whose count each stage fixes, stage ``pin_stage`` — a
    join's inputs must co-partition, so the other side is set without
    exploration (Fig 8a step 2) and is not explored itself. It depends
    only on the plans."""

    rows: np.ndarray
    stages: res.Stages
    heads: np.ndarray
    of_plan: list[list[int]]
    pin_pos: np.ndarray
    pin_stage: np.ndarray

    @staticmethod
    def of(plans: CompiledPlans) -> "StageLayout":
        table = plans.table
        rows, lengths, heads, of_plan, pin_pos, pin_stage = [], [], [], [], [], []
        for j in range(len(plans.starts) - 1):
            of_plan.append([])
            pinned: set[int] = set()
            for stage in plans.stages(j):
                head = stage[0]
                if table.op[plans.rows[head]] != "Exchange" or head in pinned:
                    continue  # leaf Extract partitioning stays heuristic
                join = next((i for i in stage if table.op[plans.rows[i]] in JOIN_OPS), None)
                sides = [] if join is None else [plans.stage[k] for k in plans.kids[join]]
                sides = [i for i in sides if table.op[plans.rows[i]] == "Exchange"]
                pinned.update(sides)
                pin_pos += sides
                pin_stage += [len(heads)] * len(sides)
                of_plan[-1].append(len(heads))
                rows += stage
                lengths.append(len(stage))
                heads.append(head)
        ints = (lambda v: np.array(v, dtype=np.intp))
        return StageLayout(ints(rows), res.Stages.of(ints(lengths)), ints(heads), of_plan,
                           ints(pin_pos), ints(pin_stage))


@dataclass
class Instance:
    """The candidates of one job instance: their template's plans, the
    statistics of every table row, every position's partition count,
    and the explored stages (CLEO with exploration)."""

    cands: TemplatePlans
    stats: sim.RowStats
    partitions: np.ndarray
    explored: tuple | None = None  # (StageLayout, p_def, p, cost_p, cost_def, accepted)

    def explored_of(self, j: int) -> list[ExploredStage]:
        """Candidate ``j``'s explored stages, bottom-up."""
        if self.explored is None:
            return []
        lay, *cols = self.explored
        table, rows = self.cands.plans.table, self.cands.plans.rows
        return [ExploredStage(table.tpl_op_id[rows[lay.heads[i]]], *(c[i] for c in cols))
                for i in lay.of_plan[j]]


class Planner:
    """The Cascades candidate loop that both cost models plug into: it
    takes the template's compiled candidate plans, seeds the job
    instance's generators in one batch, derives the statistics of each
    distinct subtree and every candidate's heuristic partition counts
    from the instance's shared draws, prices them all with
    :meth:`_costs`, keeps the first cheapest, builds its tree and
    simulates the latencies of that one only."""

    def _costs(self, inst: Instance, pm: float, counter: res.LookupCounter) -> list[float]:
        """Predicted cost of every candidate of one job instance; may
        re-assign their partition counts (``inst.partitions``) and
        record the stages it explored (``inst.explored``)."""
        raise NotImplementedError

    def plan(self, tpl: JobTemplate, world: sim.World, base_cards, base_lens,
             pm: float, seed_parts: tuple) -> PlanResult:
        t0 = time.perf_counter()
        cands = candidate_plans(tpl)
        plans = cands.plans
        # Every generator the instance reads, seeded in one batch.
        rngs = sim.RngBatch(sim.instance_seeds(cands.seed_keys, seed_parts))
        draws = sim.seeded_draws(cands.draw_keys, iter(rngs))
        stats = sim.derive_rows(plans.table, world, base_cards, base_lens, pm, draws)
        inst = Instance(cands, stats, sim.heuristic_partitions(plans, stats, draws))
        counter = res.LookupCounter()
        t1 = time.perf_counter()
        costs = self._costs(inst, pm, counter)
        cost_model_seconds = time.perf_counter() - t1
        best = 0
        for i, cost in enumerate(costs):
            if cost < costs[best]:
                best = i
        lo, hi = plans.starts[best], plans.starts[best + 1]
        partitions = inst.partitions[lo:hi].tolist()
        nodes = cands.tree(best, partitions)
        planning_seconds = time.perf_counter() - t0
        lat = sim.latencies(plans, range(lo, hi), stats, partitions, world, pm,
                            rngs.take(cands.lat_slot[lo:hi]))
        for node, own in zip(nodes, lat):
            node.actual_latency = own
        return PlanResult(
            root=nodes[-1], choices=dict(cands.choices[best]), predicted_cost=costs[best],
            lookups=counter.lookups,
            planning_seconds=planning_seconds, cost_model_seconds=cost_model_seconds,
            actual_latency=sim.plan_latency(plans, lo, lat),
            cpu_seconds=sim.plan_cpu_seconds([n.op for n in nodes], partitions, lat),
            candidate_costs=dict(zip(cands.keys, costs)),
            explored=inst.explored_of(best),
        )


class DefaultPlanner(Planner):
    """Baseline: default cost model, heuristic partitioning."""

    def __init__(self, cluster: str):
        self.cluster = cluster

    def _costs(self, inst, pm, counter) -> list[float]:
        table, stats, plans = inst.cands.plans.table, inst.stats, inst.cands.plans
        cost = [dc.op_cost(self.cluster, op, i, c, n) for op, i, c, n in
                zip(table.op, stats.est_in, stats.est_out, stats.row_len)]
        return [sum(cost[r] for r in plans.rows[lo:hi])
                for lo, hi in zip(plans.starts, plans.starts[1:])]


class CleoPlanner(Planner):
    """Learned cost models + resource-aware partition selection."""

    def __init__(self, bank: ModelBank, explore_partitions: bool = True):
        self.bank = bank
        self.explore_partitions = explore_partitions
        self._memo: dict[TemplatePlans, tuple[tuple[np.ndarray, ...], dict, StageLayout]] = {}

    def _template(self, cands: TemplatePlans) -> tuple[tuple[np.ndarray, ...], dict,
                                                       StageLayout]:
        """``(models, context, layout)`` of a template's candidates: the
        resolved models of every distinct subtree
        (:meth:`ModelBank.resolve`), their context
        (:func:`resource.table_context`) and the explored-stage layout.
        They depend only on the template's plans, and the bank is fixed,
        so they are kept per plan set, keyed by the set itself."""
        hit = self._memo.get(cands)
        if hit is None:
            context = res.table_context(cands.plans.table)
            models = self.bank.resolve(context)
            for a in models:
                a.flags.writeable = False
            hit = self._memo[cands] = (models, context, StageLayout.of(cands.plans))
        return hit

    def _costs(self, inst, pm, counter) -> list[float]:
        # The curves of every distinct subtree, gathered to every
        # candidate's operators.
        cands = inst.cands
        models, context, layout = self._template(cands)
        curves = res.row_curves(models, context, inst.stats, pm)[cands.rows]
        if self.explore_partitions:
            self._explore(inst, layout, curves, counter)
        p = inst.partitions.astype(float)[:, None]
        cost = res.predict_costs_at(curves, p, counter)
        starts = cands.plans.starts
        return [float(cost[a:b].sum()) for a, b in zip(starts, starts[1:])]

    def _explore(self, inst: Instance, lay: StageLayout, curves: res.CostCurves,
                 counter: res.LookupCounter) -> None:
        """Partition exploration and optimization (§5.3, Fig 8a step 9)
        of every explored stage of every candidate in one array pass:
        the analytical optimum of each stage's resource-context, clamped
        to the exploration window around the heuristic count, is taken
        only if the models predict a material stage-cost win. A join's
        pinned inputs take their stage's final count, and the operators
        above each count are re-derived."""
        if not len(lay.heads):
            return  # no Exchange stage to explore: the heuristic counts stand
        ctx = curves[lay.rows]  # every explored stage's resource-context
        p = inst.partitions
        p_def = p[lay.heads]
        p_lo, p_hi = res.exploration_window(p_def)
        p_opt = np.minimum(np.maximum(res.analytical_optima(ctx, lay.stages, counter), p_lo),
                           p_hi)
        cost_p, cost_def = res.stage_costs(ctx, lay.stages, np.array([p_opt, p_def]).T,
                                           counter).T
        accepted = cost_p < ACCEPT_MARGIN * cost_def
        final = np.where(accepted, p_opt, p_def)
        p[lay.heads] = final
        p[lay.pin_pos] = final[lay.pin_stage]
        sim.rederive(inst.cands.plans, p)
        inst.explored = (lay, *(a.tolist() for a in (p_def, p_opt, cost_p, cost_def, accepted)))
