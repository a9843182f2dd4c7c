"""A planner reused across jobs and clusters plans exactly as a fresh
planner per job: CleoPlanner keeps each template's resolved models, and
the template keeps its compiled candidate plans."""
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.optimizer.cascades import CleoPlanner, DefaultPlanner, PlanResult
from repro.scope.workload import Cluster, tiny_cluster

# Every field but the two timings.
COMPARED = [f.name for f in fields(PlanResult)
            if f.name not in ("planning_seconds", "cost_model_seconds")]


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
    other = Cluster(replace(tiny_cluster(), name=name, seed=8))
    jobs = [job for pair in zip(day_jobs(cl), day_jobs(other)) for job in pair]
    planner = CleoPlanner(tiny_bank)
    for job in jobs:
        assert_same(planner.plan(*job), CleoPlanner(tiny_bank).plan(*job))


def test_warm_planners_seed_no_generator_one_by_one(tiny, tiny_bank, monkeypatch):
    """A warm call of either planner seeds every generator of its job
    instance in one batch: it makes no ``np.random.default_rng`` call."""
    cl, _, _ = tiny
    jobs = day_jobs(cl)
    planners = [CleoPlanner(tiny_bank), DefaultPlanner(cl.cfg.name)]
    for planner in planners:
        for job in jobs:
            planner.plan(*job)
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for planner in planners:
        for job in jobs:
            planner.plan(*job)
    assert calls == []
