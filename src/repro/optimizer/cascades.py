"""Cascades-style physical planning with pluggable cost models (§5).

:class:`Planner` holds the one candidate loop, SCOPE's *Optimize
Inputs* task (Fig 8a): it enumerates physical alternatives for the
logical choice points (join implementation, aggregation strategy,
optional local pre-aggregation — the §6.6.2 plan-change classes),
derives statistics and heuristic partition counts, and keeps the
candidate its cost model prices cheapest. The two planners differ only
in that cost model (``_costs``), which prices every candidate of a job
instance in one call.

``CleoPlanner`` costs the candidates with the learned model hierarchy
instead of the default cost model. Each operator's model is resolved
once per physical plan of a template (the planner keeps the look-up,
and which stages explore, per ``(tpl_id, choices)``). Once per job
instance, the operators of all candidates are folded into
partition-cost curves together, and a stage's operators' curves form
its resource-context (partition exploration); at the stage boundary the
partitioning operator picks the count minimizing total predicted stage
cost (partition optimization) — one array pass over every explored
stage of every candidate. The plans' final costs read the same curves.
A required co-partitioning property from a join fixes the other side's
exchange without exploration (Fig 8a step 2). :class:`PlanResult`
records each explored stage of the chosen plan (:class:`ExploredStage`).

``DefaultPlanner`` is the baseline: the default cost model at a fixed
assumed degree of parallelism, partition counts from the local
heuristic — i.e., SCOPE's stock behaviour.

Planning returns the chosen *executed* plan: the substrate simulator
fills actual latencies for whatever plan is chosen, using common random
numbers so two planners' choices for the same job instance are
comparable (§6.6.1). Every candidate of one job instance reads the same
memoized substrate draws (:class:`repro.scope.simulator.Draws`), and
:class:`PlanResult` reports each candidate's predicted cost.
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
    PlanNode,
    assign_input_templates,
    choice_points,
    expand_physical,
    plan_stages,
)
from repro.scope.workload import JobTemplate

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
    root: PlanNode  # chosen physical plan, fully instantiated
    choices: dict  # physical choices made
    predicted_cost: float
    lookups: int  # learned-model invocations
    planning_seconds: float
    actual_latency: float  # simulated end-to-end latency of the choice
    cpu_seconds: float
    # predicted cost of every candidate, keyed by tuple(choices.items())
    candidate_costs: dict[tuple, float]
    # the chosen plan's explored stages, bottom-up (CLEO with exploration)
    explored: list[ExploredStage] = field(default_factory=list)


@dataclass
class Candidate:
    """One physical alternative of a job instance, with statistics and
    heuristic partition counts; its cost model may re-assign the counts
    and record the stages it explored."""

    choices: dict
    root: PlanNode
    explored: list[ExploredStage] = field(default_factory=list)


def _candidates(tpl: JobTemplate) -> list[dict]:
    points = choice_points(tpl.logical_root)
    if not points:
        return [dict(tpl.choices)]
    ids = [cid for cid, _ in points]
    alt_lists = [alts for _, alts in points]
    combos = itertools.islice(itertools.product(*alt_lists), MAX_CANDIDATES)
    return [dict(zip(ids, combo)) for combo in combos]


class Planner:
    """The Cascades candidate loop that both cost models plug into: it
    enumerates the physical alternatives, derives each one's statistics
    and heuristic partition counts from the job instance's shared
    draws, prices them all with :meth:`_costs`, keeps the first
    cheapest and simulates the latencies of that one only."""

    def _costs(self, tpl: JobTemplate, cands: list[Candidate], pm: float,
               counter: res.LookupCounter) -> list[float]:
        """Predicted cost of every candidate of one job instance; may
        re-assign their partition counts and record the stages it
        explored (``Candidate.explored``)."""
        raise NotImplementedError

    def plan(self, tpl: JobTemplate, world: sim.World, base_cards, base_lens,
             pm: float, seed_parts: tuple) -> PlanResult:
        t0 = time.perf_counter()
        counter = res.LookupCounter()
        draws = sim.Draws(seed_parts)
        cands = []
        for choices in _candidates(tpl):
            root = expand_physical(tpl.logical_root, choices)
            assign_input_templates(root)
            sim.derive_statistics(root, world, base_cards, base_lens, pm, draws)
            sim.assign_partitions(root, draws)
            cands.append(Candidate(choices, root))
        costs = self._costs(tpl, cands, pm, counter)
        best = 0
        for i, cost in enumerate(costs):
            if cost < costs[best]:
                best = i
        chosen = cands[best]
        sim.simulate_latencies(chosen.root, world, pm, seed_parts)
        return PlanResult(
            root=chosen.root, choices=chosen.choices, predicted_cost=costs[best],
            lookups=counter.lookups,
            planning_seconds=time.perf_counter() - t0,
            actual_latency=sim.job_latency(chosen.root),
            cpu_seconds=sim.job_cpu_seconds(chosen.root),
            candidate_costs={tuple(c.choices.items()): cost for c, cost in zip(cands, costs)},
            explored=chosen.explored,
        )


class DefaultPlanner(Planner):
    """Baseline: default cost model, heuristic partitioning."""

    def __init__(self, cluster: str):
        self.cluster = cluster

    def _costs(self, tpl, cands, pm, counter) -> list[float]:
        return [sum(dc.default_cost(self.cluster, n) for n in c.root.walk()) for c in cands]


@dataclass
class StageLayout:
    """The Exchange stages of a physical plan that explore partitions,
    bottom-up, as rows of ``root.walk()``: ``rows`` lists every explored
    stage's operators, stage after stage, ``lengths`` their number per
    stage, ``heads`` each stage's Exchange, and ``pins`` the Exchanges
    whose count each stage fixes — a join's inputs must co-partition, so
    the other side is set without exploration (Fig 8a step 2) and is
    not explored itself. It depends only on the template and choices."""

    rows: list[int]
    lengths: list[int]
    heads: list[int]
    pins: list[tuple[int, ...]]

    @staticmethod
    def of(root: PlanNode) -> "StageLayout":
        row_of = {id(n): i for i, n in enumerate(root.walk())}
        rows, lengths, heads, pins = [], [], [], []
        pinned: set[int] = set()
        for stage in plan_stages(root):
            head = stage[0]
            if head.op != "Exchange" or id(head) in pinned:
                continue  # leaf Extract partitioning stays heuristic
            rows += [row_of[id(n)] for n in stage]
            lengths.append(len(stage))
            heads.append(row_of[id(head)])
            join = next((n for n in stage if n.op in ("HashJoin", "MergeJoin")), None)
            sides = [] if join is None else [c.stage_partition_root() for c in join.children]
            sides = [sp for sp in sides if sp.op == "Exchange"]
            pinned.update(id(sp) for sp in sides)
            pins.append(tuple(row_of[id(sp)] for sp in sides))
        return StageLayout(rows, lengths, heads, pins)


class CleoPlanner(Planner):
    """Learned cost models + resource-aware partition selection."""

    def __init__(self, bank: ModelBank, explore_partitions: bool = True):
        self.bank = bank
        self.explore_partitions = explore_partitions
        # (tpl_id, choices) -> (logical tree, signatures and resolved
        # models, explored-stage layout)
        self._plans: dict[tuple, tuple[PlanNode, res.PlanModels, StageLayout]] = {}

    def _resolved(self, tpl: JobTemplate, choices: dict,
                  root: PlanNode) -> tuple[res.PlanModels, StageLayout]:
        """The signatures, resolved models and explored-stage layout of
        ``root``, the physical plan of ``tpl`` under ``choices``. They
        depend only on the template and its choices, and the bank is
        fixed, so they are kept per ``(tpl_id, choices)``; an entry is
        reused only for the very logical tree it was resolved from."""
        key = (tpl.tpl_id, tuple(choices.items()))
        hit = self._plans.get(key)
        if hit is None or hit[0] is not tpl.logical_root:
            hit = self._plans[key] = (tpl.logical_root, res.resolve_plan(self.bank, root),
                                      StageLayout.of(root))
        return hit[1], hit[2]

    def _costs(self, tpl, cands, pm, counter) -> list[float]:
        # The candidates' operators, one candidate after another, priced
        # together. Each operator's model is resolved once per physical
        # plan of a template; the statistics the curves read do not
        # depend on partition counts.
        entries = [self._resolved(tpl, c.choices, c.root) for c in cands]
        nodes = [n for c in cands for n in c.root.walk()]
        starts = [0, *itertools.accumulate(len(m.ident["op"]) for m, _ in entries)]
        curves = res.instance_curves(res.PlanModels.concat([m for m, _ in entries]), nodes, pm)
        if self.explore_partitions:
            self._explore(cands, [lay for _, lay in entries], starts, nodes, curves, counter)
        p = np.array([[n.partitions] for n in nodes], dtype=float)
        cost = res.predict_costs_at(curves, p, counter)
        return [float(cost[a:b].sum()) for a, b in zip(starts, starts[1:])]

    def _explore(self, cands: list[Candidate], layouts: list[StageLayout], starts: list[int],
                 nodes: list[PlanNode], curves: res.CostCurves,
                 counter: res.LookupCounter) -> None:
        """Partition exploration and optimization (§5.3, Fig 8a step 9)
        of every explored stage of every candidate in one array pass:
        the analytical optimum of each stage's resource-context, clamped
        to the exploration window around the heuristic count, is taken
        only if the models predict a material stage-cost win. Then the
        operators above each chosen count are re-derived."""
        heads = [s + h for lay, s in zip(layouts, starts) for h in lay.heads]
        if not heads:
            return  # no Exchange stage to explore: the heuristic counts stand
        rows = np.array([s + r for lay, s in zip(layouts, starts) for r in lay.rows])
        lengths = np.array([n for lay in layouts for n in lay.lengths])
        ctx = curves[rows]  # every explored stage's resource-context
        p_def = np.array([nodes[h].partitions for h in heads])
        p_lo, p_hi = res.exploration_window(p_def)
        p = np.minimum(np.maximum(res.analytical_optima(ctx, lengths, counter), p_lo), p_hi)
        cost_p, cost_def = res.stage_costs(ctx, lengths, np.column_stack([p, p_def]), counter).T
        accepted = cost_p < ACCEPT_MARGIN * cost_def
        p_def, p, cost_p, cost_def, accepted = (
            a.tolist() for a in (p_def, p, cost_p, cost_def, accepted))
        i = 0
        for cand, lay, start in zip(cands, layouts, starts):
            for pin in lay.pins:  # in plan_stages order: a pin reads its stage's final count
                head = nodes[heads[i]]
                if accepted[i]:
                    head.partitions = p[i]
                for r in pin:
                    nodes[start + r].partitions = head.partitions
                cand.explored.append(ExploredStage(head.tpl_op_id, p_def[i], p[i], cost_p[i],
                                                   cost_def[i], accepted[i]))
                i += 1
            sim.rederive_partitions(cand.root)
