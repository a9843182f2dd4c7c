"""CleoPlanner prices all candidates of a job instance in one array pass
(``CleoPlanner._costs``). It must plan exactly as pricing one candidate
at a time, stage by stage, did: the reference below keeps that
per-candidate costing (``_cost`` and ``_optimize_partitions``, with the
one-stage §5.3 functions they called) as a subclass, and every field of
every ``PlanResult`` must be ``==``."""
import math

import numpy as np
import pytest

from repro.optimizer import resource as res
from repro.optimizer.cascades import (
    ACCEPT_MARGIN,
    CleoPlanner,
    DefaultPlanner,
    ExploredStage,
)
from repro.scope import simulator as sim
from repro.scope.plan import plan_stages
from tests.test_planner_memo import COMPARED, day_jobs


def ref_predict_costs_at(curves, partitions, counter):
    p = np.asarray(partitions, dtype=float)
    z = curves.a[:, None] + curves.theta_p[:, None] / p + curves.theta_c[:, None] * p
    z = np.clip(np.clip(z, curves.z_lo[:, None], curves.z_hi[:, None]), -30.0, 30.0)
    counter.lookups += int(curves.covered.sum()) * p.shape[-1]
    return np.where(curves.covered[:, None], np.expm1(z), 0.0)


def ref_optimize_stage_analytical(ctx, counter, p_max=res.MAX_P):
    counter.lookups += int(ctx.covered.sum())
    sum_tp = float(ctx.theta_p.sum())
    sum_tc = float(ctx.theta_c.sum())
    if sum_tp > 0 and sum_tc <= 0:
        return p_max
    if sum_tp <= 0 and sum_tc > 0:
        return 1
    if sum_tp > 0 and sum_tc > 0:
        return int(np.clip(round(math.sqrt(sum_tp / sum_tc)), 1, p_max))
    return 1


class ReferencePlanner(CleoPlanner):
    """Prices one candidate at a time and explores one stage at a time."""

    def _costs(self, tpl, cands, pm, counter):
        return [self._cost(tpl, c, pm, counter) for c in cands]

    def _optimize_partitions(self, cand, nodes, curves, counter):
        row_of = {id(n): i for i, n in enumerate(nodes)}
        pinned = set()
        for stage in plan_stages(cand.root):
            stage_root = stage[0]
            if stage_root.op != "Exchange" or id(stage_root) in pinned:
                continue
            parent_join = next((n for n in stage if n.op in ("HashJoin", "MergeJoin")), None)
            ctx = curves[[row_of[id(n)] for n in stage]]
            p_def = stage_root.partitions
            p_lo, p_hi = max(1, p_def // 3), min(res.MAX_P, 3 * p_def)
            p = int(np.clip(ref_optimize_stage_analytical(ctx, counter), p_lo, p_hi))
            both = np.array(sorted({p, p_def}), dtype=float)
            costs = ref_predict_costs_at(ctx, both, counter).sum(axis=0)
            cost_at = dict(zip(both.astype(int), costs))
            accepted = bool(cost_at[p] < ACCEPT_MARGIN * cost_at[p_def])
            if accepted:
                stage_root.partitions = p
            cand.explored.append(ExploredStage(stage_root.tpl_op_id, p_def, p,
                                               float(cost_at[p]), float(cost_at[p_def]),
                                               accepted))
            if parent_join is not None:
                for c in parent_join.children:
                    sp = c.stage_partition_root()
                    if sp.op == "Exchange":
                        sp.partitions = stage_root.partitions
                        pinned.add(id(sp))

    def _cost(self, tpl, cand, pm, counter):
        nodes = list(cand.root.walk())
        models, _ = self._resolved(tpl, cand.choices, cand.root)
        curves = res.instance_curves(models, nodes, pm)
        if self.explore_partitions:
            self._optimize_partitions(cand, nodes, curves, counter)
            sim.rederive_partitions(cand.root)
        p = np.array([[n.partitions] for n in nodes], dtype=float)
        return float(ref_predict_costs_at(curves, p, counter).sum())


def assert_all_fields_equal(got, want):
    for name in COMPARED:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("explore", [True, False])
def test_batched_costing_equals_per_candidate_reference(tiny, tiny_bank, explore):
    """Fresh planners per job, then one warm planner over every job twice."""
    cl, _, _ = tiny
    jobs = day_jobs(cl)
    want = [ReferencePlanner(tiny_bank, explore).plan(*job) for job in jobs]
    assert any(r.explored for r in want) == explore
    for job, w in zip(jobs, want):
        assert_all_fields_equal(CleoPlanner(tiny_bank, explore).plan(*job), w)
    warm, warm_ref = CleoPlanner(tiny_bank, explore), ReferencePlanner(tiny_bank, explore)
    for _ in range(2):
        for job, w in zip(jobs, want):
            assert_all_fields_equal(warm.plan(*job), w)
            assert_all_fields_equal(warm_ref.plan(*job), w)


def test_explored_stages_explain_the_chosen_counts(tiny, tiny_bank):
    """Each explored stage is accepted exactly when its cost at ``p`` is
    below ``ACCEPT_MARGIN`` times its cost at ``p_def``, and an accepted
    stage's Exchange runs at ``p`` in the returned plan."""
    cl, _, _ = tiny
    accepted = rejected = 0
    planner = CleoPlanner(tiny_bank)
    for job in day_jobs(cl):
        r = planner.plan(*job)
        exchanges = {n.tpl_op_id: n for n in r.root.walk() if n.op == "Exchange"}
        assert len({s.tpl_op_id for s in r.explored}) == len(r.explored)
        for s in r.explored:
            lo, hi = res.exploration_window(s.p_def)
            assert lo <= s.p <= hi
            assert s.accepted == (s.cost_p < ACCEPT_MARGIN * s.cost_def)
            if s.accepted:
                assert exchanges[s.tpl_op_id].partitions == s.p
                accepted += 1
            else:
                rejected += 1
    assert accepted > 0 and rejected > 0


def test_no_explored_stages_without_exploration(tiny, tiny_bank):
    cl, _, _ = tiny
    job = day_jobs(cl)[0]
    assert DefaultPlanner(cl.cfg.name).plan(*job).explored == []
    assert CleoPlanner(tiny_bank, explore_partitions=False).plan(*job).explored == []
