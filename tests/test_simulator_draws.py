"""The memoized substrate draws (``simulator.Draws``) against the eager
per-operator generators they replace.

``reference_derive_statistics`` and ``reference_assign_partitions`` seed
one generator per operator per pass, keyed by ``(kind, *seed_parts,
tpl_op_id)``, and draw from it with ``normal(0.0, s)``. The simulator
now draws each operator's first standard normal once per job instance,
on first use, and scales it; these tests require identical statistics,
partition counts and generated logs.
"""
import math

import numpy as np
import pytest

from repro.optimizer.cascades import _candidates
from repro.scope import simulator as sim
from repro.scope.plan import PlanNode, assign_input_templates, expand_physical
from repro.scope.workload import Cluster, tiny_cluster


def reference_derive_statistics(root: PlanNode, world: sim.World, base_cards, base_lens,
                                pm: float, seed_parts: tuple) -> None:
    for node in root.walk():
        g_node = sim._rng("est-jit", *seed_parts, node.tpl_op_id)
        if not node.children:
            card = base_cards[node.input_templates[0]]
            node.row_len = base_lens[node.input_templates[0]]
            node.true_in = node.true_base = card
            node.true_out = world.true_output(node, pm)
            err = math.exp(g_node.normal(0.0, 0.06))
            node.est_in = node.est_base = node.est_out = card * err
            continue
        node.true_in = sum(c.true_out for c in node.children)
        node.true_base = sum(c.true_base for c in node.children)
        node.est_in = sum(c.est_out for c in node.children)
        node.est_base = sum(c.est_base for c in node.children)
        child_len = sum(c.row_len * c.true_out for c in node.children) / max(
            node.true_in, 1.0
        )
        if node.op == "Project":
            node.row_len = child_len * (0.4 + 0.5 * node.sel_param)
        elif node.op in ("HashJoin", "MergeJoin"):
            node.row_len = sum(c.row_len for c in node.children)
        elif node.op in ("HashAggregate", "StreamAggregate", "LocalAggregate"):
            node.row_len = child_len * 0.8
        else:
            node.row_len = child_len
        node.true_out = world.true_output(node, pm)
        if node.logical in ("Exchange", "Sort", "Project", "Output"):
            node.est_out = node.est_in
        else:
            true_sel = node.true_out / max(node.true_in, 1.0)
            if node.tpl_op_id not in world._est_cache:
                g_sys = sim._rng(world.cluster, "est", node.tpl_op_id)
                bias = sim.EST_BIAS.get(node.logical, 0.0)
                world._est_cache[node.tpl_op_id] = math.exp(g_sys.normal(bias, world.est_sigma))
            err = world._est_cache[node.tpl_op_id] * math.exp(g_node.normal(0.0, 0.08))
            node.est_out = max(1.0, node.est_in * true_sel * err)


def reference_default_partitions(est_rows: float, g_inst: np.random.Generator) -> int:
    target = sim.ROWS_PER_PARTITION * math.exp(g_inst.normal(0.0, 0.35))
    return int(np.clip(math.ceil(est_rows / target), 1, sim.MAX_PARTITIONS))


def reference_assign_partitions(root: PlanNode, seed_parts: tuple) -> None:
    for node in root.walk():
        g_node = sim._rng("part", *seed_parts, node.tpl_op_id)
        if node.op == "Extract":
            node.partitions = reference_default_partitions(node.est_base, g_node)
        elif node.op == "Exchange":
            node.partitions = reference_default_partitions(node.est_in, g_node)
        else:
            node.partitions = node.children[0].partitions if node.children else 1
            if node.op in ("HashJoin", "MergeJoin"):
                p = max(c.stage_partition_root().partitions for c in node.children)
                for c in node.children:
                    sp = c.stage_partition_root()
                    if sp.op == "Exchange":
                        sp.partitions = p
                for c in node.children:
                    for n in c.walk():
                        if n.children and n.op not in ("Extract", "Exchange"):
                            if n.op in ("HashJoin", "MergeJoin"):
                                n.partitions = max(k.partitions for k in n.children)
                            else:
                                n.partitions = n.children[0].partitions
                node.partitions = max(
                    c.stage_partition_root().partitions for c in node.children
                )


def reference_instantiate(root, world, base_cards, base_lens, pm, seed_parts) -> None:
    reference_derive_statistics(root, world, base_cards, base_lens, pm, seed_parts)
    reference_assign_partitions(root, seed_parts)
    sim.simulate_latencies(root, world, pm, seed_parts)


STATS = ("true_in", "true_base", "true_out", "est_in", "est_base", "est_out", "row_len",
         "partitions")


def _physical(tpl, choices) -> PlanNode:
    root = expand_physical(tpl.logical_root, choices)
    assign_input_templates(root)
    return root


def test_every_candidate_matches_the_eager_draws(tiny):
    """One ``Draws`` shared by every candidate of a job instance, as the
    planners share it, gives each candidate the statistics and
    heuristic partitions of fresh per-operator generators."""
    cl, _, _ = tiny
    checked = 0
    for tpl in cl.live_templates(3):
        for k in range(tpl.freq):
            pm, cards, lens = cl.instance_inputs(tpl, 3, k)
            seed = (cl.cfg.name, tpl.tpl_id, 3, k)
            draws = sim.Draws(seed)
            for choices in _candidates(tpl):
                got, want = _physical(tpl, choices), _physical(tpl, choices)
                sim.derive_statistics(got, cl.world, cards, lens, pm, draws)
                sim.assign_partitions(got, draws)
                reference_derive_statistics(want, cl.world, cards, lens, pm, seed)
                reference_assign_partitions(want, seed)
                for g, w in zip(got.walk(), want.walk()):
                    assert [getattr(g, a) for a in STATS] == [getattr(w, a) for a in STATS]
                checked += 1
    assert checked > 100


def test_generated_logs_match_the_eager_draws(tiny, monkeypatch):
    _, ops, jobs = tiny
    monkeypatch.setattr(sim, "instantiate", reference_instantiate)
    ref_ops, ref_jobs = Cluster(tiny_cluster()).generate_days([1, 2, 3])
    assert ops.equals(ref_ops)
    assert jobs.equals(ref_jobs)


def test_only_drawing_operators_seed_a_generator(tiny):
    """Leaves and selectivity-estimating operators draw ``est-jit``;
    Extract and Exchange draw ``part``; nothing else draws."""
    cl, _, _ = tiny
    tpl = cl.live_templates(3)[0]
    pm, cards, lens = cl.instance_inputs(tpl, 3, 0)
    root = _physical(tpl, tpl.choices)
    draws = sim.Draws(("x", 1))
    sim.derive_statistics(root, cl.world, cards, lens, pm, draws)
    sim.assign_partitions(root, draws)
    nodes = list(root.walk())
    want = {("est-jit", n.tpl_op_id) for n in nodes
            if not n.children or n.logical not in ("Exchange", "Sort", "Project", "Output")}
    want |= {("part", n.tpl_op_id) for n in nodes if n.op in ("Extract", "Exchange")}
    assert set(draws) == want
    assert len(draws) < 2 * len(nodes)


@pytest.mark.parametrize("s", [0.06, 0.08, 0.35])
def test_normal_is_scaled_standard_normal(s):
    """The identity the memo rests on, for every scale the simulator
    uses: numpy's ``normal(0.0, s)`` is ``0.0 + s * standard_normal()``,
    bit for bit."""
    for seed in range(10_000):
        got = np.random.default_rng(seed).normal(0.0, s)
        assert got == 0.0 + s * np.random.default_rng(seed).standard_normal(), seed
