"""Tests for the ground-truth simulator and statistics propagation."""
import numpy as np
import pytest

from repro.optimizer.cascades import _candidates
from repro.scope import simulator as sim
from repro.scope.plan import assign_input_templates, expand_physical, plan_identity, PlanNode


def make_plan(choices=None):
    from tests.test_plan import simple_logical

    root = expand_physical(simple_logical(), choices or {"j1": "hash", "ga": "hash"})
    assign_input_templates(root)
    return root


BASE = {"inA": 1e6, "inB": 5e5}
LENS = {"inA": 100.0, "inB": 200.0}


def instantiate(root, world=None, pm=0.5, seed=("t", 1)):
    world = world or sim.World(cluster="testc")
    sim.instantiate(root, world, BASE, LENS, pm, seed)
    return root


def test_instantiate_fills_everything():
    root = instantiate(make_plan())
    for n in root.walk():
        assert n.true_out >= 0 and n.est_out >= 0
        assert n.partitions >= 1
        assert n.actual_latency > 0
        assert np.isfinite(n.actual_latency)


def test_determinism_same_seed():
    a = instantiate(make_plan())
    b = instantiate(make_plan())
    for x, y in zip(a.walk(), b.walk()):
        assert x.actual_latency == y.actual_latency
        assert x.est_out == y.est_out


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
    root = instantiate(make_plan())
    for n in root.walk():
        if n.children:
            assert n.true_in == pytest.approx(sum(c.true_out for c in n.children))
            assert n.true_base == pytest.approx(sum(c.true_base for c in n.children))


def test_filter_reduces_cardinality():
    root = instantiate(make_plan())
    for n in root.walk():
        if n.op == "Filter":
            assert n.true_out <= n.true_in


def test_aggregate_reduces_heavily():
    root = instantiate(make_plan())
    for n in root.walk():
        if n.op == "HashAggregate":
            assert n.true_out < n.true_in * 0.5


def test_card_preserving_ops_keep_estimates():
    root = instantiate(make_plan())
    for n in root.walk():
        if n.op in ("Exchange", "Sort", "Output", "Project"):
            assert n.est_out == pytest.approx(n.est_in)


def test_estimation_error_compounds_with_depth():
    """Average |log est/true| grows up the plan (§3.1)."""
    errs = {}
    for seed in range(40):
        root = instantiate(make_plan(), seed=("t", seed))
        for n, depth in zip(root.walk(), plan_identity(root)["depth"]):
            if n.logical in ("Filter", "Join", "Aggregate"):
                errs.setdefault(depth, []).append(
                    abs(np.log((n.est_out + 1) / (n.true_out + 1)))
                )
    depths = sorted(errs)
    assert np.mean(errs[depths[-1]]) > np.mean(errs[depths[0]])


def test_join_copartitioning():
    root = instantiate(make_plan())
    for n in root.walk():
        if n.op in ("HashJoin", "MergeJoin"):
            roots = [c.stage_partition_root() for c in n.children]
            assert roots[0].partitions == roots[1].partitions


def make_candidate(tpl, choices):
    root = expand_physical(tpl.logical_root, choices)
    assign_input_templates(root)
    return root


def reference_assign_partitions(root: PlanNode, draws: sim.Draws) -> None:
    """Partition assignment as it was before joins were co-partitioned
    in one pass: each join re-derives its inputs' chains in place."""
    for node in root.walk():
        if node.op == "Extract":
            node.partitions = sim.default_partitions(node.est_base, draws["part", node.tpl_op_id])
        elif node.op == "Exchange":
            node.partitions = sim.default_partitions(node.est_in, draws["part", node.tpl_op_id])
        else:
            node.partitions = node.children[0].partitions if node.children else 1
            if node.op in ("HashJoin", "MergeJoin"):
                p = max(c.stage_partition_root().partitions for c in node.children)
                for c in node.children:
                    sp = c.stage_partition_root()
                    if sp.op == "Exchange":
                        sp.partitions = p
                for c in node.children:
                    sim.rederive_partitions(c)
                node.partitions = max(
                    c.stage_partition_root().partitions for c in node.children
                )


def test_assign_partitions_matches_per_join_rederivation(tiny):
    """On every candidate of every day-3 template, including the
    two-join ones, one co-partitioning pass and one re-derivation give
    the counts of re-deriving at each join, and re-deriving again
    changes nothing."""
    cl, _, _ = tiny
    two_join_plans = 0
    for tpl in cl.live_templates(3):
        pm, cards, lens = cl.instance_inputs(tpl, 3, 0)
        draws = sim.Draws((cl.cfg.name, tpl.tpl_id, 3, 0))
        for choices in _candidates(tpl):
            got, want = make_candidate(tpl, choices), make_candidate(tpl, choices)
            for root, assign in ((got, sim.assign_partitions),
                                 (want, reference_assign_partitions)):
                sim.derive_statistics(root, cl.world, cards, lens, pm, draws)
                assign(root, draws)
            counts = [n.partitions for n in got.walk()]
            assert counts == [n.partitions for n in want.walk()]
            sim.rederive_partitions(got)
            assert [n.partitions for n in got.walk()] == counts
            joins = sum(n.op in ("HashJoin", "MergeJoin") for n in got.walk())
            two_join_plans += joins == 2
    assert two_join_plans > 0


def test_partition_latency_tradeoff():
    """More partitions cut work time but add overhead (the §5.3 family)."""
    world = sim.World(cluster="testc")
    node = PlanNode(op="Extract", input_templates=("inA",), tpl_op_id="x",
                    props="inA")
    node.true_in = node.true_base = node.true_out = 1e7
    node.row_len = 100.0
    lats = {}
    for p in (1, 100, sim.MAX_PARTITIONS):
        node.partitions = p
        lats[p] = world.exclusive_latency(node, 0.5, ("s",))
    assert lats[100] < lats[1]
    assert lats[100] < lats[sim.MAX_PARTITIONS]


def test_blocking_child_costs_more():
    world = sim.World(cluster="testc")
    child_stream = PlanNode(op="Filter", tpl_op_id="c1")
    child_block = PlanNode(op="Sort", tpl_op_id="c2")
    for child in (child_stream, child_block):
        child.true_out = 1e6
        child.row_len = 100.0
    lats = {}
    for name, child in (("stream", child_stream), ("block", child_block)):
        n = PlanNode(op="HashAggregate", children=[child], tpl_op_id="agg",
                     input_templates=("inA",), props="k")
        n.true_in = 1e6
        n.true_out = 1e4
        n.row_len = 80.0
        n.partitions = 10
        lats[name] = world.exclusive_latency(n, 0.5, ("s",))
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
