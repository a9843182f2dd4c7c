"""Tests for the Cascades-style planner with learned cost models (§5)."""
import numpy as np
import pytest

from repro.core.features import FEATURE_NAMES, P_FEATURE_INDEX
from repro.optimizer.cascades import CleoPlanner, DefaultPlanner, _candidates
from repro.scope import simulator as sim
from repro.scope.plan import (
    PlanNode,
    assign_input_templates,
    expand_physical,
    operator_signature,
)
from repro.scope.workload import JobTemplate
from tests.banks import bank_of


@pytest.fixture(scope="module")
def planning_setup(tiny, tiny_bank):
    cl, _, _ = tiny
    tpl = next(t for t in cl.templates if "_j1" in str(t.choices))
    pm, bc, bl = cl.instance_inputs(tpl, 3, 0)
    seed = (cl.cfg.name, tpl.tpl_id, 3, 0)
    return cl, tpl, pm, bc, bl, seed


def test_candidates_cover_choice_space(tiny):
    cl, _, _ = tiny
    tpl = next(t for t in cl.templates if "_j1" in str(t.choices) and "_ga" in str(t.choices))
    cands = _candidates(tpl)
    # 1 join x (agg impl x local) = 2 * 2 * 2 = 8 for single-join plans.
    assert len(cands) >= 8
    assert len({tuple(sorted(c.items())) for c in cands}) == len(cands)


def test_candidates_no_choice_points(tiny):
    cl, _, _ = tiny
    import copy

    tpl = copy.copy(cl.templates[0])
    from repro.scope.plan import PlanNode

    leaf = PlanNode(op="Scan", input_templates=("x",), tpl_op_id="s", props="x")
    tpl.logical_root = PlanNode(op="Output", children=[leaf], tpl_op_id="o")
    tpl.choices = {}
    assert _candidates(tpl) == [{}]


def test_default_planner_returns_valid_plan(planning_setup):
    cl, tpl, pm, bc, bl, seed = planning_setup
    r = DefaultPlanner(cl.cfg.name).plan(tpl, cl.world, bc, bl, pm, seed)
    assert r.actual_latency > 0 and r.cpu_seconds > 0
    assert r.lookups == 0
    ops = [n.op for n in r.root.walk()]
    assert "Output" in ops


def test_cleo_planner_returns_valid_plan(planning_setup, tiny_bank):
    cl, tpl, pm, bc, bl, seed = planning_setup
    r = CleoPlanner(tiny_bank).plan(tpl, cl.world, bc, bl, pm, seed)
    assert r.actual_latency > 0
    assert r.lookups > 0  # learned models were invoked
    assert np.isfinite(r.predicted_cost)


def test_cleo_planner_deterministic(planning_setup, tiny_bank):
    cl, tpl, pm, bc, bl, seed = planning_setup
    r1 = CleoPlanner(tiny_bank).plan(tpl, cl.world, bc, bl, pm, seed)
    r2 = CleoPlanner(tiny_bank).plan(tpl, cl.world, bc, bl, pm, seed)
    assert r1.choices == r2.choices
    assert r1.actual_latency == r2.actual_latency


@pytest.mark.parametrize("explore", [True, False])
def test_predicted_cost_matches_feature_matrix_reference(planning_setup, tiny_bank,
                                                         explore):
    """The plan cost read from the curves equals the resolved models'
    ``predict`` on the feature matrix, summed over the chosen plan."""
    from tests.test_resource import plan_rows, reference_costs

    cl, tpl, pm, bc, bl, seed = planning_setup
    r = CleoPlanner(tiny_bank, explore_partitions=explore).plan(
        tpl, cl.world, bc, bl, pm, seed)
    want = reference_costs(tiny_bank, plan_rows(r.root, pm)).sum()
    assert r.predicted_cost == pytest.approx(want, rel=1e-12, abs=0)


def test_partition_exploration_changes_counts(planning_setup, tiny_bank):
    cl, tpl, pm, bc, bl, seed = planning_setup
    with_exp = CleoPlanner(tiny_bank, explore_partitions=True).plan(
        tpl, cl.world, bc, bl, pm, seed
    )
    without = CleoPlanner(tiny_bank, explore_partitions=False).plan(
        tpl, cl.world, bc, bl, pm, seed
    )
    assert with_exp.lookups >= without.lookups


def test_exploration_window_bounds(planning_setup, tiny_bank):
    """Chosen exchange counts stay within the clamp around the chosen
    variant's own heuristic defaults (modulo co-partitioning overrides,
    which copy the join's stage count to the other side)."""
    cl, tpl, pm, bc, bl, seed = planning_setup
    r = CleoPlanner(tiny_bank).plan(tpl, cl.world, bc, bl, pm, seed)
    # Re-derive the heuristic defaults for the *chosen* physical variant.
    baseline = expand_physical(tpl.logical_root, r.choices)
    assign_input_templates(baseline)
    sim.instantiate(baseline, cl.world, bc, bl, pm, seed)
    defaults = {n.tpl_op_id: n.partitions for n in baseline.walk() if n.op == "Exchange"}
    chosen = {n.tpl_op_id: n.partitions for n in r.root.walk() if n.op == "Exchange"}
    for op_id, p in chosen.items():
        d = defaults[op_id]
        in_window = max(1, d // 3) <= p <= min(3000, d * 3)
        copied_from_sibling = p in chosen.values()  # co-partition override
        assert in_window or copied_from_sibling


def test_co_partitioning_preserved_after_exploration(planning_setup, tiny_bank):
    cl, tpl, pm, bc, bl, seed = planning_setup
    r = CleoPlanner(tiny_bank).plan(tpl, cl.world, bc, bl, pm, seed)
    for n in r.root.walk():
        if n.op in ("HashJoin", "MergeJoin"):
            ps = [c.stage_partition_root().partitions for c in n.children]
            assert ps[0] == ps[1]


def test_planner_explores_impl_alternatives(tiny, tiny_bank):
    """Across many templates, CLEO must sometimes pick a different
    implementation than the logged plan (§6.6.1)."""
    cl, _, _ = tiny
    changed = 0
    total = 0
    planner = CleoPlanner(tiny_bank, explore_partitions=False)
    for tpl in cl.templates[:10]:
        if not tpl.alive(3):
            continue
        pm, bc, bl = cl.instance_inputs(tpl, 3, 0)
        seed = (cl.cfg.name, tpl.tpl_id, 3, 0)
        base = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(base)
        r = planner.plan(tpl, cl.world, bc, bl, pm, seed)
        total += 1
        if operator_signature(r.root) != operator_signature(base):
            changed += 1
    assert total > 0
    assert 0 < changed <= total


def test_planner_chosen_single_partition_survives_plan():
    """An Exchange the planner sets to 1 partition stays at 1 in the
    returned plan (it is not put back to the heuristic count)."""
    from tests.test_plan import scan

    left = PlanNode(op="Filter", children=[scan("inA", "sA")], tpl_op_id="f1",
                    props="p1", sel_param=0.5)
    logical = PlanNode(op="Output", tpl_op_id="out", children=[
        PlanNode(op="Join", children=[left, scan("inB", "sB")], tpl_op_id="j1",
                 props="jk1", sel_param=1.0)])
    assign_input_templates(logical)
    world, pm, seed = sim.World(cluster="one"), 0.5, ("one", 1)
    cards, lens = {"inA": 1e5, "inB": 5e4}, {"inA": 100.0, "inB": 200.0}
    for impl in ("hash", "merge"):  # heuristic counts of 2: 1 is in the window
        heuristic = expand_physical(logical, {"j1": impl})
        assign_input_templates(heuristic)
        sim.instantiate(heuristic, world, cards, lens, pm, seed)
        assert [n.partitions for n in heuristic.walk() if n.op == "Exchange"] == [2, 2]
    tpl = JobTemplate(tpl_id="one_t1", logical_root=logical, choices={"j1": "merge"},
                      root=heuristic, inputs=("inA", "inB"), freq=1)
    # Every Exchange costs more with every partition, so the §5.3 optimum is 1.
    coef = np.zeros(len(FEATURE_NAMES))
    coef[P_FEATURE_INDEX] = 0.5
    bank = bank_of(("Operator", "Exchange", coef, 1.0, -30.0, 30.0))
    r = CleoPlanner(bank).plan(tpl, world, cards, lens, pm, seed)
    assert [n.partitions for n in r.root.walk() if n.op == "Exchange"] == [1, 1]
    assert r.root.partitions == 1


@pytest.mark.parametrize("cleo", [True, False])
def test_candidate_costs_cover_every_candidate(planning_setup, tiny_bank, cleo):
    cl, tpl, pm, bc, bl, seed = planning_setup
    planner = CleoPlanner(tiny_bank) if cleo else DefaultPlanner(cl.cfg.name)
    r = planner.plan(tpl, cl.world, bc, bl, pm, seed)
    assert list(r.candidate_costs) == [tuple(c.items()) for c in _candidates(tpl)]
    assert r.predicted_cost == min(r.candidate_costs.values())
    assert r.predicted_cost == r.candidate_costs[tuple(r.choices.items())]
