"""The compiled plans, the per-instance substrate draws
(``simulator.seeded_draws``) and the batched seeding of generated days
(``simulator.RngBatch``) against eager per-operator generators on
``PlanNode`` trees.

``reference_derive_statistics``, ``reference_assign_partitions`` and
``reference_simulate_latencies`` walk a tree, seed one fresh generator
per operator per pass, keyed by ``(kind, *seed_parts, tpl_op_id)``, and
draw from it with ``normal(0.0, s)``. A plan node holds no statistics,
so the references keep each node's in their own dict, keyed by
``id(node)``, and write only partition counts and latencies into the
nodes. The simulator derives statistics
once per distinct subtree of compiled plans, draws each operator's first
standard normal once per job instance and scales it, and
``generate_days`` seeds all of a day's generators in one batch; these
tests require identical statistics, partition counts, latencies and
generated logs.
"""
import math
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.optimizer.cascades import candidate_plans
from repro.scope import default_cost as dc
from repro.scope import simulator as sim
from repro.scope.plan import PlanNode, assign_input_templates, compile_plans, expand_physical
from repro.scope.workload import NODE_STATS, Cluster, tiny_cluster
from tests.test_plan import _reference_identity


def reference_derive_statistics(root: PlanNode, world: sim.World, base_cards, base_lens,
                                pm: float, seed_parts: tuple) -> dict[int, SimpleNamespace]:
    """The true and estimated statistics and row length of every node,
    keyed by ``id(node)``."""
    stats: dict[int, SimpleNamespace] = {}
    for node in root.walk():
        s = stats[id(node)] = SimpleNamespace()
        kids = [stats[id(c)] for c in node.children]
        g_node = sim._rng("est-jit", *seed_parts, node.tpl_op_id)
        if not kids:
            card = base_cards[node.input_templates[0]]
            s.row_len = base_lens[node.input_templates[0]]
            s.true_in = s.true_base = card
            s.true_out = sim.true_output(node.op, card, node.sel_param, pm, [])
            err = math.exp(g_node.normal(0.0, 0.06))
            s.est_in = s.est_base = s.est_out = card * err
            continue
        s.true_in = sum(c.true_out for c in kids)
        s.true_base = sum(c.true_base for c in kids)
        s.est_in = sum(c.est_out for c in kids)
        s.est_base = sum(c.est_base for c in kids)
        child_len = sum(c.row_len * c.true_out for c in kids) / max(s.true_in, 1.0)
        if node.op == "Project":
            s.row_len = child_len * (0.4 + 0.5 * node.sel_param)
        elif node.op in ("HashJoin", "MergeJoin"):
            s.row_len = sum(c.row_len for c in kids)
        elif node.op in ("HashAggregate", "StreamAggregate", "LocalAggregate"):
            s.row_len = child_len * 0.8
        else:
            s.row_len = child_len
        s.true_out = sim.true_output(node.op, s.true_in, node.sel_param, pm,
                                     [c.true_out for c in kids])
        if node.logical in ("Exchange", "Sort", "Project", "Output"):
            s.est_out = s.est_in
        else:
            true_sel = s.true_out / max(s.true_in, 1.0)
            if node.tpl_op_id not in world._est_cache:
                g_sys = sim._rng(world.cluster, "est", node.tpl_op_id)
                bias = sim.EST_BIAS.get(node.logical, 0.0)
                world._est_cache[node.tpl_op_id] = math.exp(g_sys.normal(bias, sim.EST_SIGMA))
            err = world._est_cache[node.tpl_op_id] * math.exp(g_node.normal(0.0, 0.08))
            s.est_out = max(1.0, s.est_in * true_sel * err)
    return stats


def reference_default_partitions(est_rows: float, g_inst: np.random.Generator) -> int:
    target = sim.ROWS_PER_PARTITION * math.exp(g_inst.normal(0.0, 0.35))
    return int(np.clip(math.ceil(est_rows / target), 1, sim.MAX_PARTITIONS))


def reference_rederive(node: PlanNode) -> None:
    """Re-derive, in place, the count of every operator of ``node``'s
    subtree but the partitioning ones: a join's is its inputs' largest,
    any other's its first child's."""
    for n in node.walk():
        if n.children and n.op not in ("Extract", "Exchange"):
            if n.op in ("HashJoin", "MergeJoin"):
                n.partitions = max(c.partitions for c in n.children)
            else:
                n.partitions = n.children[0].partitions


def reference_assign_partitions(root: PlanNode, stats: dict[int, SimpleNamespace],
                                seed_parts: tuple) -> None:
    """Heuristic partition counts, with each join re-deriving its inputs'
    chains in place."""
    for node in root.walk():
        g_node = sim._rng("part", *seed_parts, node.tpl_op_id)
        if node.op == "Extract":
            node.partitions = reference_default_partitions(stats[id(node)].est_base, g_node)
        elif node.op == "Exchange":
            node.partitions = reference_default_partitions(stats[id(node)].est_in, g_node)
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


def reference_job_latency(node) -> float:
    return max((reference_job_latency(c) for c in node.children), default=0.0) + \
        node.actual_latency


def reference_job_cpu_seconds(root) -> float:
    total = 0.0
    for node in root.walk():
        overhead = sim.OP_COEF[node.op][2] * sim.OVERHEAD_PER_PARTITION * node.partitions
        work = max(node.actual_latency - overhead, 0.0) * node.partitions
        total += work + overhead + sim.CPU_STARTUP_PER_PARTITION * node.partitions
    return total


def reference_simulate_latencies(root: PlanNode, stats: dict[int, SimpleNamespace],
                                 world: sim.World, pm: float, seed_parts: tuple) -> None:
    """Each operator's exclusive latency at its statistics and partition
    count, from its children's row lengths and blocking flags and its own
    fresh ``"lat"`` generator."""
    for node in root.walk():
        s, kids = stats[id(node)], node.children
        in_len = (sum(stats[id(c)].row_len * stats[id(c)].true_out for c in kids)
                  / max(s.true_in, 1.0) if kids else s.row_len)
        node.actual_latency = world.latency(
            node.op, node.logical, tuple(sorted(set(node.input_templates))), s.true_in,
            s.true_out, s.row_len, in_len, node.partitions,
            sim._context(not kids, any(c.blocking for c in kids)), pm,
            sim._rng("lat", *seed_parts, node.tpl_op_id))


def reference_instantiate(root, world, base_cards, base_lens, pm,
                          seed_parts) -> dict[int, SimpleNamespace]:
    """The eager run of ``root``: its nodes' statistics, returned, and
    their partition counts and latencies, written into the nodes."""
    stats = reference_derive_statistics(root, world, base_cards, base_lens, pm, seed_parts)
    reference_assign_partitions(root, stats, seed_parts)
    reference_simulate_latencies(root, stats, world, pm, seed_parts)
    return stats


STATS = ("true_in", "true_base", "true_out", "est_in", "est_base", "est_out", "row_len")


def _physical(tpl, choices) -> PlanNode:
    root = expand_physical(tpl.logical_root, choices)
    assign_input_templates(root)
    return root


def test_compiled_candidates_match_the_eager_draws(tiny):
    """Every candidate of every tiny day-3 job, read from its template's
    compiled candidate plans, where the candidates share the rows of
    their common subtrees, has the statistics and heuristic partition
    counts of its own tree under fresh per-operator generators, whose
    joins each re-derive their inputs' counts. Two-join candidates are
    among them, and re-deriving the counts again changes nothing."""
    cl, _, _ = tiny
    checked = two_join_plans = 0
    for tpl in cl.live_templates(3):
        cands = candidate_plans(tpl)
        plans, table = cands.plans, cands.plans.table
        for k in range(tpl.freq):
            pm, cards, lens = cl.instance_inputs(tpl, 3, k)
            seed = (cl.cfg.name, tpl.tpl_id, 3, k)
            draws = sim.seeded_draws(cands.draw_keys, iter(sim.RngBatch(
                sim.instance_seeds(cands.draw_keys, seed))))
            stats = sim.derive_rows(table, cl.world, cards, lens, pm, draws)
            counts = sim.heuristic_partitions(plans, stats, draws)
            parts = counts.tolist()
            for j, choices in enumerate(cands.choices):
                want = _physical(tpl, choices)
                want_stats = reference_derive_statistics(want, cl.world, cards, lens, pm, seed)
                reference_assign_partitions(want, want_stats, seed)
                pos = range(plans.starts[j], plans.starts[j + 1])
                assert [(table.op[plans.rows[i]], table.tpl_op_id[plans.rows[i]]) for i in pos] \
                    == [(n.op, n.tpl_op_id) for n in want.walk()]
                got = [[getattr(stats, a)[plans.rows[i]] for a in STATS] + [parts[i]]
                       for i in pos]
                assert got == [[getattr(want_stats[id(n)], a) for a in STATS] + [n.partitions]
                               for n in want.walk()]
                two_join_plans += sum(n.op in ("HashJoin", "MergeJoin") for n in want.walk()) == 2
                checked += 1
            again = counts.copy()
            sim.rederive(plans, again)
            assert np.array_equal(again, counts)
    assert checked > 100 and two_join_plans > 0
    assert sum(len(candidate_plans(t).plans.table) for t in cl.live_templates(3)) < \
        sum(len(candidate_plans(t).plans) for t in cl.live_templates(3))


def reference_logs(cl: Cluster, days: list[int]) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The operator and job logs of ``days`` built run by run on trees:
    fresh ``"sizes"`` generators, the eager per-operator generators, the
    per-node identity definitions and the tree's default costs."""
    name = cl.cfg.name
    ops, jobs = [], []
    for day in days:
        for seq, (tpl, k) in enumerate(cl.runs(day), start=1):
            pm, cards, lens = cl.instance_inputs(tpl, day, k)
            root = _physical(tpl, tpl.choices)
            stats = reference_instantiate(root, cl.world, cards, lens, pm,
                                          (name, tpl.tpl_id, day, k))
            run = {"cluster": name, "day": day, "job_id": f"{name}_d{day}_{seq:05d}",
                   "template_id": tpl.tpl_id, "adhoc": tpl.tpl_id.startswith(f"{name}_adhoc")}
            for n in root.walk():
                ident, s = _reference_identity(n), stats[id(n)]
                ops.append({
                    **run, "op_id": n.tpl_op_id, "op": n.op, "logical": n.logical,
                    **{c: ident[c] for c in ("depth", "cl", "sig_sub", "sig_approx",
                                             "sig_opinput", "in_hash")},
                    "pm": pm, "I": s.est_in, "B": s.est_base, "C": s.est_out, "L": s.row_len,
                    "P": n.partitions, "true_I": s.true_in, "true_B": s.true_base,
                    "true_C": s.true_out, "actual": n.actual_latency,
                    "cost_default": dc.op_cost(name, n.op, s.est_in, s.est_out, s.row_len),
                    "cost_default_truecard": dc.op_cost(name, n.op, s.true_in, s.true_out,
                                                        s.row_len),
                })
            jobs.append({**run, "latency": reference_job_latency(root),
                         "cpu_seconds": reference_job_cpu_seconds(root),
                         "n_ops": sum(1 for _ in root.walk())})
    return pd.DataFrame(ops), pd.DataFrame(jobs)


def test_generated_logs_match_the_eager_draws(tiny):
    """The batched day, simulated on compiled plans, equals the one built
    run by run on trees with every key seeded alone: fresh ``"sizes"``
    generators, and fresh per-operator generators in every pass."""
    _, ops, jobs = tiny
    ref_ops, ref_jobs = reference_logs(Cluster(tiny_cluster()), [1, 2, 3])
    assert ops.equals(ref_ops)
    assert jobs.equals(ref_jobs)


def test_logged_runs_replay_on_the_lazy_path(tiny):
    """Every logged run of tiny days 1-3 is reproduced by
    ``instance_inputs`` and a batch of the run's own seed keys, two ways:
    on the template's compiled executed plan (``instantiate_plan``, as
    Figs 17 and 19 replay it), every statistics column, count and
    latency; and on its tree (``instantiate``, which the benchmark
    harness replays), every count and latency."""
    _, ops, _ = tiny
    cl = Cluster(tiny_cluster())
    cl.generate_days([1, 2, 3])
    logged = ops.groupby("job_id", sort=False)
    replayed = 0
    for day in (1, 2, 3):
        for seq, (tpl, k) in enumerate(cl.runs(day), start=1):
            rows = logged.get_group(f"{cl.cfg.name}_d{day}_{seq:05d}")
            assert (rows.template_id == tpl.tpl_id).all()
            pm, cards, lens = cl.instance_inputs(tpl, day, k)
            assert (rows.pm == pm).all()
            seed = (cl.cfg.name, tpl.tpl_id, day, k)
            plan = tpl.executed()
            inst = sim.instantiate_plan(plan.plans, plan.draw_keys, cl.world, cards, lens, pm,
                                        iter(sim.RngBatch(sim.instance_seeds(plan.seed_keys,
                                                                             seed))))
            table, order = plan.plans.table, plan.plans.rows
            assert rows.op_id.tolist() == [table.tpl_op_id[r] for r in order]
            for col, attr in NODE_STATS.items():
                assert rows[col].tolist() == [getattr(inst.stats, attr)[r] for r in order], \
                    (tpl.tpl_id, col)
            assert rows.P.tolist() == inst.partitions
            assert rows.actual.tolist() == inst.latencies
            root = _physical(tpl, tpl.choices)
            sim.instantiate(root, cl.world, cards, lens, pm, seed)
            nodes = list(root.walk())
            assert rows.op_id.tolist() == [n.tpl_op_id for n in nodes]
            assert rows.P.tolist() == [n.partitions for n in nodes]
            assert rows.actual.tolist() == [n.actual_latency for n in nodes]
            replayed += 1
    assert replayed == ops.job_id.nunique()


class RecordingDraws(dict):
    """Draws made on first read, in the order they are read: the first
    standard normal of a fresh generator of ``(kind, *seed_parts,
    tpl_op_id)``."""

    def __init__(self, seed_parts: tuple):
        super().__init__()
        self.seed_parts = seed_parts

    def __missing__(self, key: tuple[str, str]) -> float:
        kind, tpl_op_id = key
        z = self[key] = sim._rng(kind, *self.seed_parts, tpl_op_id).standard_normal()
        return z


def test_only_drawing_operators_seed_a_generator(tiny):
    """Leaves and selectivity-estimating operators draw ``est-jit``;
    Extract and Exchange draw ``part``; nothing else draws, and
    ``plan_keys`` lists the draws in the order they are read."""
    cl, _, _ = tiny
    tpl = cl.live_templates(3)[0]
    pm, cards, lens = cl.instance_inputs(tpl, 3, 0)
    root = _physical(tpl, tpl.choices)
    plans = compile_plans([root])
    draws = RecordingDraws(("x", 1))
    stats = sim.derive_rows(plans.table, cl.world, cards, lens, pm, draws)
    sim.heuristic_partitions(plans, stats, draws)
    nodes = list(root.walk())
    want = {("est-jit", n.tpl_op_id) for n in nodes
            if not n.children or n.logical not in ("Exchange", "Sort", "Project", "Output")}
    want |= {("part", n.tpl_op_id) for n in nodes if n.op in ("Extract", "Exchange")}
    assert set(draws) == want
    assert list(draws) == sim.plan_keys(plans)[0]
    assert len(draws) < 2 * len(nodes)


def test_a_draw_no_caller_seeded_is_an_error(tiny):
    """The draws are a plain dict: a key that was not seeded up front is
    a ``KeyError``, never a draw made on the side."""
    cl, _, _ = tiny
    tpl = cl.live_templates(3)[0]
    pm, cards, lens = cl.instance_inputs(tpl, 3, 0)
    plan = tpl.executed()
    batch = sim.RngBatch(sim.instance_seeds(plan.draw_keys, ("x", 1)))
    for missing in plan.draw_keys:
        draws = sim.seeded_draws(plan.draw_keys, iter(batch))
        del draws[missing]
        with pytest.raises(KeyError):
            stats = sim.derive_rows(plan.plans.table, cl.world, cards, lens, pm, draws)
            sim.heuristic_partitions(plan.plans, stats, draws)


def test_stage_latencies_match_the_eager_draws(tiny):
    """The latencies of every Exchange stage's positions of every tiny
    day-3 run, at 1, the heuristic count and the maximum, read from the
    run's batch, equal those of its tree under fresh per-operator
    generators with that stage's operators set to the count (the ground
    truth of Fig 17)."""
    cl, _, _ = tiny
    checked = 0
    for tpl in cl.live_templates(3):
        plan = tpl.executed()
        plans = plan.plans
        for k in range(tpl.freq):
            pm, cards, lens = cl.instance_inputs(tpl, 3, k)
            seed = (cl.cfg.name, tpl.tpl_id, 3, k)
            batch = sim.RngBatch(sim.instance_seeds(plan.seed_keys, seed))
            inst = sim.instantiate_plan(plans, plan.draw_keys, cl.world, cards, lens, pm,
                                        iter(batch))
            root = _physical(tpl, tpl.choices)
            stats = reference_instantiate(root, cl.world, cards, lens, pm, seed)
            nodes = list(root.walk())
            for stage in plans.stages(0):
                if nodes[stage[0]].op != "Exchange":
                    continue
                p_def = inst.partitions[stage[0]]
                for p in (1, p_def, sim.MAX_PARTITIONS):
                    got = sim.latencies(plans, stage, inst.stats, [p] * len(stage), cl.world, pm,
                                        batch.take(len(plan.draw_keys) + i for i in stage))
                    saved = [nodes[i].partitions for i in stage]
                    for i in stage:
                        nodes[i].partitions = p
                    reference_simulate_latencies(root, stats, cl.world, pm, seed)
                    for i, count in zip(stage, saved):
                        nodes[i].partitions = count
                    assert got == [nodes[i].actual_latency for i in stage], (tpl.tpl_id, k, p)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("s", [0.06, 0.08, 0.35])
def test_normal_is_scaled_standard_normal(s):
    """The identity the memo rests on, for every scale the simulator
    uses: numpy's ``normal(0.0, s)`` is ``0.0 + s * standard_normal()``,
    bit for bit."""
    for seed in range(10_000):
        got = np.random.default_rng(seed).normal(0.0, s)
        assert got == 0.0 + s * np.random.default_rng(seed).standard_normal(), seed
