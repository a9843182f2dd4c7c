"""Tests for the plan IR: signatures, stages, physical expansion."""
import pytest

from repro.scope.plan import (
    PHYSICAL_OPS,
    PlanNode,
    assign_input_templates,
    choice_points,
    compile_plans,
    expand_physical,
    hash64,
    operator_signature,
    plan_signature,
)


def scan(name="in0", opid="s0"):
    return PlanNode(op="Scan", input_templates=(name,), tpl_op_id=opid, props=name)


def ident(node):
    """The identity columns of ``node``'s row, its subtree compiled alone."""
    plans = compile_plans([node])
    return {c: v[plans.rows[-1]] for c, v in plans.table.identity().items()}


def simple_logical():
    """Join of two scanned/filtered inputs + aggregate + output."""
    left = PlanNode(op="Filter", children=[scan("inA", "sA")], tpl_op_id="f1",
                    props="p1", sel_param=0.5)
    right = scan("inB", "sB")
    join = PlanNode(op="Join", children=[left, right], tpl_op_id="j1", props="jk1",
                    sel_param=1.0)
    agg = PlanNode(op="Aggregate", children=[join], tpl_op_id="ga", props="ak1",
                   sel_param=0.01)
    root = PlanNode(op="Output", children=[agg], tpl_op_id="out")
    assign_input_templates(root)
    return root


# -- hash64 -----------------------------------------------------------------

def test_hash64_deterministic():
    assert hash64("a", 1) == hash64("a", 1)


def test_hash64_distinct():
    assert hash64("a") != hash64("b")
    assert hash64("a", "b") != hash64("ab")


def test_hash64_fits_signed_int64():
    for v in ("x", "y", 123, ("a", "b")):
        assert 0 <= hash64(v) < 2**63


# -- traversal / properties -------------------------------------------------

def test_walk_bottom_up():
    root = simple_logical()
    ops = [n.op for n in root.walk()]
    assert ops[-1] == "Output"
    assert ops.index("Scan") < ops.index("Join") < ops.index("Aggregate")


def test_depth_and_logical_count():
    root = simple_logical()
    assert ident(root)["cl"] == 6
    assert ident(root)["depth"] == 5  # scan->filter->join->agg->output


def test_input_templates_propagate():
    root = simple_logical()
    assert set(root.input_templates) == {"inA", "inB"}


def test_physical_op_catalogue_consistency():
    for op, spec in PHYSICAL_OPS.items():
        assert "logical" in spec and "blocking" in spec


# -- signatures -------------------------------------------------------------

def test_sig_subgraph_stable():
    assert ident(simple_logical())["sig_sub"] == ident(simple_logical())["sig_sub"]


def test_sig_subgraph_sensitive_to_structure():
    a = simple_logical()
    b = simple_logical()
    b.children[0].children[0].children[0].props = "different"
    assert ident(a)["sig_sub"] != ident(b)["sig_sub"]


def test_sig_approx_ignores_order():
    """Approx signature depends on logical-op frequency, not ordering
    (computed on physical plans, hence Extract leaves)."""
    def physical_chain(order):
        node = PlanNode(op="Extract", input_templates=("inA",), tpl_op_id="sA",
                        props="inA")
        for op, opid, props in order:
            node = PlanNode(op=op, children=[node], tpl_op_id=opid, props=props)
        root = PlanNode(op="Output", children=[node], tpl_op_id="o")
        assign_input_templates(root)
        return root

    root_a = physical_chain([("Filter", "f1", "pX"), ("Project", "p1", "pY")])
    root_b = physical_chain([("Project", "p1", "pY"), ("Filter", "f1", "pX")])
    assert ident(root_a)["sig_approx"] == ident(root_b)["sig_approx"]
    assert ident(root_a)["sig_sub"] != ident(root_b)["sig_sub"]


def test_sig_opinput_ignores_subgraph_shape():
    root = simple_logical()
    other = simple_logical()
    other.children[0].children[0].sel_param = 0.9
    other.children[0].children[0].props = "changed"
    assert ident(root)["sig_opinput"] == ident(other)["sig_opinput"]


def test_sig_opinput_differs_per_op():
    root = simple_logical()
    agg = root.children[0]
    out = root
    assert ident(agg)["sig_opinput"] != ident(out)["sig_opinput"]


def _reference_identity(node):
    """The per-node recursive definitions the one-pass
    :meth:`PlanTable.identity` must reproduce."""
    def depth(n):
        return 1 + max((depth(c) for c in n.children), default=0)

    def cl(n):
        return 1 + sum(cl(c) for c in n.children)

    def sig_sub(n):
        return hash64(n.op, n.props, *(sig_sub(c) for c in n.children),
                      *(() if n.children else n.input_templates))

    freq: dict[str, int] = {}
    for n in node.walk():
        if n is not node:
            freq[n.logical] = freq.get(n.logical, 0) + 1
    inputs = tuple(sorted(node.input_templates))
    return {
        "depth": depth(node),
        "cl": cl(node),
        "in_hash": hash64(tuple(sorted(set(node.input_templates)))) / float(2**63),
        "sig_sub": sig_sub(node),
        "sig_approx": hash64(node.op, inputs, tuple(sorted(freq.items()))),
        "sig_opinput": hash64(node.op, inputs),
    }


def test_plan_identity_matches_per_node_definitions(tiny):
    cl, _, _ = tiny
    for tpl in cl.templates:
        plans = tpl.executed().plans
        ids = plans.table.identity()
        root = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(root)
        for r, node in zip(plans.rows, root.walk(), strict=True):
            assert {c: v[r] for c, v in ids.items()} == _reference_identity(node)


# -- physical expansion -----------------------------------------------------

def test_expand_hash_join_inserts_exchanges():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash"})
    ops = [n.op for n in root.walk()]
    assert ops.count("Exchange") == 3  # two join sides + one aggregate
    assert "HashJoin" in ops and "HashAggregate" in ops
    assert "Sort" not in ops


def test_expand_merge_join_inserts_sorts():
    root = expand_physical(simple_logical(), {"j1": "merge", "ga": "stream"})
    ops = [n.op for n in root.walk()]
    assert ops.count("Sort") == 3  # both join sides + stream aggregate
    assert "MergeJoin" in ops and "StreamAggregate" in ops


def test_expand_local_aggregate():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash",
                                              "ga:local": True})
    assert "LocalAggregate" in [n.op for n in root.walk()]


def test_expand_unknown_kind_raises():
    with pytest.raises(ValueError):
        expand_physical(PlanNode(op="Bogus"), {})


def test_choice_points_listing():
    pts = dict(choice_points(simple_logical()))
    assert pts == {"j1": ["hash", "merge"], "ga": ["hash", "stream"],
                   "ga:local": [False, True]}


def test_operator_signature_ignores_partitions():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash"})
    sig1 = operator_signature(root)
    for n in root.walk():
        n.partitions = 99
    assert operator_signature(root) == sig1
    assert plan_signature(root) != plan_signature(expand_physical(
        simple_logical(), {"j1": "hash", "ga": "hash"}))


# -- stages -----------------------------------------------------------------

def stage_nodes(root):
    """The stages of ``root`` compiled alone (:meth:`CompiledPlans.stages`),
    as lists of its nodes."""
    nodes = list(root.walk())
    return [[nodes[i] for i in stage] for stage in compile_plans([root]).stages(0)]


def test_plan_stages_partitioning_roots():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash"})
    stages = stage_nodes(root)
    roots = [s[0].op for s in stages]
    # Every stage starts at an Extract or an Exchange.
    assert all(r in ("Extract", "Exchange") for r in roots)
    total_ops = sum(len(s) for s in stages)
    assert total_ops == sum(1 for _ in root.walk())


def test_stage_membership_pipelines_above_exchange():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash"})
    stages = stage_nodes(root)
    for stage in stages:
        if stage[0].op == "Exchange" and any(n.op == "HashAggregate" for n in stage):
            # Output pipelines in the aggregate's stage.
            assert any(n.op == "Output" for n in stage)


def test_stage_partition_root():
    root = expand_physical(simple_logical(), {"j1": "hash", "ga": "hash"})
    for n in root.walk():
        r = n.stage_partition_root()
        assert r.op in ("Extract", "Exchange")
