"""A planner reused across jobs and clusters plans exactly as a fresh
planner per job: CleoPlanner keeps each physical plan's signatures,
resolved models and explored-stage layout per ``(template, choices)``."""
from dataclasses import fields, replace

import pytest

from repro.optimizer.cascades import CleoPlanner, PlanResult
from repro.scope.workload import Cluster, tiny_cluster

COMPARED = [f.name for f in fields(PlanResult) if f.name != "planning_seconds"]


def day_jobs(cl: Cluster, day: int = 3) -> list:
    """Every recurring instance of ``day`` as ``plan`` arguments."""
    out = []
    for tpl in cl.live_templates(day):
        for k in range(tpl.freq):
            pm, cards, lens = cl.instance_inputs(tpl, day, k)
            out.append((tpl, cl.world, cards, lens, pm, (cl.cfg.name, tpl.tpl_id, day, k)))
    return out


def assert_same(got: PlanResult, want: PlanResult) -> None:
    for name in COMPARED:
        assert getattr(got, name) == getattr(want, name), name


def test_warm_planner_equals_fresh_planners(tiny, tiny_bank):
    cl, _, _ = tiny
    jobs = day_jobs(cl)
    fresh = [CleoPlanner(tiny_bank).plan(*job) for job in jobs]
    planner = CleoPlanner(tiny_bank)
    for _ in range(2):
        for job, want in zip(jobs, fresh):
            assert_same(planner.plan(*job), want)


@pytest.mark.parametrize("name", ["tiny", "other"])
def test_planner_reused_on_two_clusters_equals_fresh_planners(tiny, tiny_bank, name):
    """Alternating between the tiny cluster and another one, including
    one with the same name (so the same template ids) but different
    templates."""
    cl, _, _ = tiny
    other = Cluster(replace(tiny_cluster(seed=8), name=name))
    jobs = [job for pair in zip(day_jobs(cl), day_jobs(other)) for job in pair]
    planner = CleoPlanner(tiny_bank)
    for job in jobs:
        assert_same(planner.plan(*job), CleoPlanner(tiny_bank).plan(*job))
