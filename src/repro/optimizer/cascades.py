"""Cascades-style physical planning with pluggable cost models (§5).

:class:`Planner` holds the one candidate loop, SCOPE's *Optimize
Inputs* task (Fig 8a): it enumerates physical alternatives for the
logical choice points (join implementation, aggregation strategy,
optional local pre-aggregation — the §6.6.2 plan-change classes),
derives statistics and heuristic partition counts, and keeps the
candidate its cost model prices cheapest. The two planners differ only
in that cost model (``_cost``).

``CleoPlanner`` costs each candidate with the learned model hierarchy
instead of the default cost model. Each operator's model is resolved
once per physical plan of a template (the planner keeps the look-up)
and folded into a partition-cost curve per candidate, and a stage's
operators' curves form its resource-context (partition exploration);
at the stage boundary the partitioning operator picks the count
minimizing total predicted stage cost (partition optimization). The
plan's final cost reads the same curves.
A required co-partitioning property from a join fixes the other side's
exchange without exploration (Fig 8a step 2).

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
from dataclasses import dataclass

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
    draws, prices it with :meth:`_cost`, keeps the cheapest and
    simulates the latencies of that one only."""

    def _cost(self, tpl: JobTemplate, choices: dict, root: PlanNode, pm: float,
              counter: res.LookupCounter) -> float:
        """Predicted cost of the candidate ``root``; may re-assign its
        partition counts."""
        raise NotImplementedError

    def plan(self, tpl: JobTemplate, world: sim.World, base_cards, base_lens,
             pm: float, seed_parts: tuple) -> PlanResult:
        t0 = time.perf_counter()
        counter = res.LookupCounter()
        draws = sim.Draws(seed_parts)
        costs = {}
        best = None
        for choices in _candidates(tpl):
            root = expand_physical(tpl.logical_root, choices)
            assign_input_templates(root)
            sim.derive_statistics(root, world, base_cards, base_lens, pm, draws)
            sim.assign_partitions(root, draws)
            cost = costs[tuple(choices.items())] = self._cost(tpl, choices, root, pm, counter)
            if best is None or cost < best[0]:
                best = (cost, root, choices)
        cost, root, choices = best
        sim.simulate_latencies(root, world, pm, seed_parts)
        return PlanResult(
            root=root, choices=choices, predicted_cost=cost,
            lookups=counter.lookups,
            planning_seconds=time.perf_counter() - t0,
            actual_latency=sim.job_latency(root),
            cpu_seconds=sim.job_cpu_seconds(root),
            candidate_costs=costs,
        )


class DefaultPlanner(Planner):
    """Baseline: default cost model, heuristic partitioning."""

    def __init__(self, cluster: str):
        self.cluster = cluster

    def _cost(self, tpl, choices, root, pm, counter) -> float:
        return sum(dc.default_cost(self.cluster, n) for n in root.walk())


class CleoPlanner(Planner):
    """Learned cost models + resource-aware partition selection."""

    def __init__(self, bank: ModelBank, explore_partitions: bool = True):
        self.bank = bank
        self.explore_partitions = explore_partitions
        # (tpl_id, choices) -> (logical tree, signatures and resolved models)
        self._plans: dict[tuple, tuple[PlanNode, res.PlanModels]] = {}

    def _resolved(self, tpl: JobTemplate, choices: dict, root: PlanNode) -> res.PlanModels:
        """The signatures and resolved models of ``root``, the physical
        plan of ``tpl`` under ``choices``. They depend only on the
        template and its choices, and the bank is fixed, so they are
        kept per ``(tpl_id, choices)``; an entry is reused only for the
        very logical tree it was resolved from."""
        key = (tpl.tpl_id, tuple(choices.items()))
        hit = self._plans.get(key)
        if hit is None or hit[0] is not tpl.logical_root:
            hit = self._plans[key] = (tpl.logical_root, res.resolve_plan(self.bank, root))
        return hit[1]

    # -- stage-level partition selection -------------------------------
    def _optimize_partitions(self, root: PlanNode, nodes: list[PlanNode],
                             curves: res.CostCurves, counter: res.LookupCounter) -> None:
        row_of = {id(n): i for i, n in enumerate(nodes)}
        pinned: set[int] = set()  # exchanges fixed by a required property
        for stage in plan_stages(root):
            stage_root = stage[0]
            if stage_root.op != "Exchange":
                continue  # leaf Extract partitioning stays heuristic
            if id(stage_root) in pinned:
                continue  # co-partitioning requirement: no exploration
            parent_join = next(
                (n for n in stage if n.op in ("HashJoin", "MergeJoin")), None
            )
            ctx = curves[[row_of[id(n)] for n in stage]]  # the stage's resource-context
            # The §5.3 analytical optimum, clamped to the exploration
            # window around the heuristic count.
            p_def = stage_root.partitions
            p_lo, p_hi = res.exploration_window(p_def)
            p = int(np.clip(res.optimize_stage_analytical(ctx, counter), p_lo, p_hi))
            # Partition optimization (Fig 8a step 9): keep the heuristic
            # count unless the models predict a material stage-cost win.
            both = np.array(sorted({p, p_def}), dtype=float)
            costs = res.stage_costs_at(ctx, both, counter)
            cost_at = dict(zip(both.astype(int), costs))
            if cost_at[p] < ACCEPT_MARGIN * cost_at[p_def]:
                stage_root.partitions = p
            if parent_join is not None:
                # Required property: the other join input must
                # co-partition — set without exploration (Fig 8a step 2).
                for c in parent_join.children:
                    sp = c.stage_partition_root()
                    if sp.op == "Exchange":
                        sp.partitions = stage_root.partitions
                        pinned.add(id(sp))

    def _cost(self, tpl, choices, root, pm, counter) -> float:
        # Each operator's model is resolved once per physical plan of a
        # template; the statistics the curves read do not depend on
        # partition counts.
        nodes = list(root.walk())
        curves = res.instance_curves(self._resolved(tpl, choices, root), nodes, pm)
        if self.explore_partitions:
            self._optimize_partitions(root, nodes, curves, counter)
            # Derive the operators above each chosen count.
            sim.rederive_partitions(root)
        p = np.array([[n.partitions] for n in nodes], dtype=float)
        return float(res.predict_costs_at(curves, p, counter).sum())
