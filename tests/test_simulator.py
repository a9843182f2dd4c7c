"""Tests for the ground-truth simulator and statistics propagation."""
from dataclasses import astuple

import numpy as np
import pytest

from repro.scope import simulator as sim
from repro.scope.plan import assign_input_templates, compile_plans, expand_physical, PlanNode
from repro.scope.workload import TemplatePlans
from tests.test_plan import simple_logical

CHOICES = {"j1": "hash", "ga": "hash"}


def make_plan(choices=None):
    root = expand_physical(simple_logical(), choices or CHOICES)
    assign_input_templates(root)
    return root


BASE = {"inA": 1e6, "inB": 5e5}
LENS = {"inA": 100.0, "inB": 200.0}


def instantiate(root, world=None, pm=0.5, seed=("t", 1)):
    world = world or sim.World(cluster="testc")
    sim.instantiate(root, world, BASE, LENS, pm, seed)
    return root


def run(seed=("t", 1)) -> tuple[TemplatePlans, sim.Instance]:
    """One job run of the plan of ``CHOICES``, compiled as a template's
    executed plan is, with its seed keys seeded in one batch."""
    plan = TemplatePlans.expand(simple_logical(), [CHOICES])
    return plan, sim.instantiate_plan(
        plan.plans, plan.draw_keys, sim.World(cluster="testc"), BASE, LENS, 0.5,
        iter(sim.RngBatch(sim.instance_seeds(plan.seed_keys, seed))))


def test_instantiate_fills_everything():
    plan, inst = run()
    for col in astuple(inst.stats):
        assert len(col) == len(plan.plans.table) and all(v >= 0 for v in col)
    assert all(p >= 1 for p in inst.partitions)
    assert all(lat > 0 and np.isfinite(lat) for lat in inst.latencies)


def test_determinism_same_seed():
    assert run()[1] == run()[1]


def test_different_seed_changes_noise():
    a = instantiate(make_plan(), seed=("t", 1))
    b = instantiate(make_plan(), seed=("t", 2))
    assert any(x.actual_latency != y.actual_latency for x, y in zip(a.walk(), b.walk()))


def test_common_random_numbers_across_plan_variants():
    """Shared operators of two physical variants see identical noise."""
    a = instantiate(make_plan({"j1": "hash", "ga": "hash"}))
    b = instantiate(make_plan({"j1": "merge", "ga": "hash"}))
    lat_a = {n.tpl_op_id: n.actual_latency for n in a.walk() if n.op == "Extract"}
    lat_b = {n.tpl_op_id: n.actual_latency for n in b.walk() if n.op == "Extract"}
    assert lat_a == lat_b


def test_true_cardinality_propagation():
    plan, inst = run()
    s = inst.stats
    for r, kids in enumerate(plan.plans.table.kids):
        if kids:
            assert s.true_in[r] == pytest.approx(sum(s.true_out[k] for k in kids))
            assert s.true_base[r] == pytest.approx(sum(s.true_base[k] for k in kids))


def test_filter_reduces_cardinality():
    plan, inst = run()
    for r, op in enumerate(plan.plans.table.op):
        if op == "Filter":
            assert inst.stats.true_out[r] <= inst.stats.true_in[r]


def test_aggregate_reduces_heavily():
    plan, inst = run()
    for r, op in enumerate(plan.plans.table.op):
        if op == "HashAggregate":
            assert inst.stats.true_out[r] < inst.stats.true_in[r] * 0.5


def test_card_preserving_ops_keep_estimates():
    plan, inst = run()
    for r, op in enumerate(plan.plans.table.op):
        if op in ("Exchange", "Sort", "Output", "Project"):
            assert inst.stats.est_out[r] == pytest.approx(inst.stats.est_in[r])


def test_estimation_error_compounds_with_depth():
    """Average |log est/true| grows up the plan (§3.1)."""
    errs = {}
    for seed in range(40):
        plan, inst = run(seed=("t", seed))
        table, s = plan.plans.table, inst.stats
        for r, depth in enumerate(table.identity()["depth"]):
            if table.logical[r] in ("Filter", "Join", "Aggregate"):
                errs.setdefault(depth, []).append(
                    abs(np.log((s.est_out[r] + 1) / (s.true_out[r] + 1)))
                )
    depths = sorted(errs)
    assert np.mean(errs[depths[-1]]) > np.mean(errs[depths[0]])


def test_join_copartitioning():
    root = instantiate(make_plan())
    for n in root.walk():
        if n.op in ("HashJoin", "MergeJoin"):
            roots = [c.stage_partition_root() for c in n.children]
            assert roots[0].partitions == roots[1].partitions


def one_latency(root: PlanNode, stats: dict[str, list[float]], p: int) -> float:
    """``sim.latencies`` of the top operator of ``root`` compiled alone,
    with the given statistics of each row, at ``p`` partitions."""
    plans = compile_plans([root])
    rows = sim.RowStats(**stats)
    return sim.latencies(plans, [len(plans) - 1], rows, [p], sim.World(cluster="testc"), 0.5,
                         iter([sim._rng("lat", "s", root.tpl_op_id)]))[0]


def test_partition_latency_tradeoff():
    """More partitions cut work time but add overhead (the §5.3 family)."""
    node = PlanNode(op="Extract", input_templates=("inA",), tpl_op_id="x",
                    props="inA")
    stats = {f: [1e7] for f in ("true_in", "true_base", "true_out", "est_in", "est_base",
                                "est_out")}
    stats.update(row_len=[100.0], in_len=[100.0])
    lats = {p: one_latency(node, stats, p) for p in (1, 100, sim.MAX_PARTITIONS)}
    assert lats[100] < lats[1]
    assert lats[100] < lats[sim.MAX_PARTITIONS]


def test_blocking_child_costs_more():
    lats = {}
    for name, child in (("stream", PlanNode(op="Filter", tpl_op_id="c1")),
                        ("block", PlanNode(op="Sort", tpl_op_id="c2"))):
        n = PlanNode(op="HashAggregate", children=[child], tpl_op_id="agg",
                     input_templates=("inA",), props="k")
        # Rows: the child, then the aggregate over its 1e6 rows of 100 bytes.
        stats = {f: [1e6, 1e6] for f in ("true_in", "true_base", "est_in", "est_base")}
        stats.update(true_out=[1e6, 1e4], est_out=[1e6, 1e4], row_len=[100.0, 80.0],
                     in_len=[100.0, 100.0])
        lats[name] = one_latency(n, stats, 10)
    assert lats["block"] > lats["stream"]


def test_default_partitions_clipped():
    z = np.random.default_rng(0).standard_normal()
    assert sim.default_partitions(1.0, z) >= 1
    assert sim.default_partitions(1e12, z) == sim.MAX_PARTITIONS


def test_job_latency_critical_path():
    root = instantiate(make_plan())
    total = sum(n.actual_latency for n in root.walk())
    lat = sim.job_latency(root)
    assert 0 < lat <= total


def test_job_cpu_at_least_latency_weighted():
    root = instantiate(make_plan())
    assert sim.job_cpu_seconds(root) > sim.job_latency(root)


def test_tau_cached_and_stable():
    world = sim.World(cluster="testc")
    t1 = world.tau(("inA", "inB"), "Join")
    t2 = world.tau(("inB", "inA"), "Join")  # order-insensitive
    assert t1 == t2
    assert world.tau(("inA",), "Join") != t1
