"""Tests for the ground-truth simulator and statistics propagation."""
import numpy as np
import pytest

from repro.optimizer.cascades import candidate_plans
from repro.scope import simulator as sim
from repro.scope.plan import assign_input_templates, compile_plans, expand_physical, PlanNode
from tests.test_cascades_reference import reference_rederive
from tests.test_simulator_draws import reference_derive_statistics


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
        plans = compile_plans([root])
        depths = plans.table.identity()["depth"]
        for n, depth in zip(root.walk(), map(depths.__getitem__, plans.rows)):
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


def reference_assign_partitions(root: PlanNode, draws: dict) -> None:
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
                    reference_rederive(c)
                node.partitions = max(
                    c.stage_partition_root().partitions for c in node.children
                )


def test_assign_partitions_matches_per_join_rederivation(tiny):
    """On every candidate of every day-3 template, including the
    two-join ones, one co-partitioning pass and one re-derivation
    (``heuristic_partitions`` over the compiled candidates) give the
    counts of re-deriving at each join, and re-deriving again changes
    nothing."""
    cl, _, _ = tiny
    two_join_plans = 0
    for tpl in cl.live_templates(3):
        pm, cards, lens = cl.instance_inputs(tpl, 3, 0)
        seed = (cl.cfg.name, tpl.tpl_id, 3, 0)
        cands = candidate_plans(tpl)
        plans = cands.plans
        draws = sim.seeded_draws(cands.draw_keys, iter(sim.RngBatch(
            sim.instance_seeds(cands.draw_keys, seed))))
        stats = sim.derive_rows(plans.table, cl.world, cards, lens, pm, draws)
        counts = sim.heuristic_partitions(plans, stats, draws)
        for j, choices in enumerate(cands.choices):
            want = make_candidate(tpl, choices)
            reference_derive_statistics(want, cl.world, cards, lens, pm, seed)
            reference_assign_partitions(want, draws)
            assert counts[plans.starts[j]:plans.starts[j + 1]].tolist() == \
                [n.partitions for n in want.walk()]
            joins = sum(n.op in ("HashJoin", "MergeJoin") for n in want.walk())
            two_join_plans += joins == 2
        again = counts.copy()
        sim.rederive(plans, again)
        assert np.array_equal(again, counts)
    assert two_join_plans > 0


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
