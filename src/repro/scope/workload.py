"""Recurring-job workload generator (§2.2, Figure 9).

Four synthetic clusters, each with:

- a pool of *input templates* (normalized recurring inputs — same schema
  over time, drifting sizes);
- per-input *prep pipelines* (Extract → Filter/Project/UDF chains) drawn
  from a shared pool, so different job templates share common
  subexpressions exactly as Fig 4 illustrates — including ad-hoc jobs,
  which often "scan and filter the same input before doing completely
  new aggregates" (§6.2);
- *job templates* composed of 1-3 prep'd inputs joined together with
  Exchange (shuffle) boundaries, optional aggregation/sort blocks and a
  final Output — run 1-24×/day, with template churn across days;
- daily *instances* with drifting input sizes and fresh parameters, and
  a 7-20% ad-hoc fraction.

``Cluster.generate_days`` returns two pandas DataFrames: one row per
operator instance (the training log CLEO consumes) and one per job.
Every run is simulated on its template's executed plan, compiled once
into a :class:`TemplatePlans`, the type the planners compile a
template's candidates into as well. Scales are ~100× below the paper's
production trace (DESIGN.md).
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.scope import default_cost as dc
from repro.scope import simulator as sim
from repro.scope.plan import (
    PlanNode,
    compile_plans,
    assign_input_templates,
    expand_physical,
    hash64,
)

# The operator log's columns, in order. Run-level columns come first, then
# the executed plan's table columns (ids, kinds and :meth:`PlanTable.identity`),
# ``pm``, the node statistics below, and the default cost model's estimates.
OP_COLUMNS = (
    "cluster", "day", "job_id", "template_id", "adhoc",
    "op_id", "op", "logical", "depth", "cl", "sig_sub", "sig_approx", "sig_opinput",
    "in_hash", "pm", "I", "B", "C", "L", "P", "true_I", "true_B", "true_C", "actual",
    "cost_default", "cost_default_truecard",
)
# Operator-log column -> the ``sim.RowStats`` field it records. ``P`` and
# ``actual`` record the run's partition counts and latencies.
NODE_STATS = {
    "I": "est_in", "B": "est_base", "C": "est_out", "L": "row_len",
    "true_I": "true_in", "true_B": "true_base", "true_C": "true_out",
}

FREQ_CHOICES = [1, 2, 4, 8, 24]
FREQ_WEIGHTS = [0.50, 0.20, 0.15, 0.10, 0.05]
CHURN = 0.03  # daily probability a recurring template is replaced


@dataclass
class ClusterConfig:
    name: str
    n_inputs: int  # size of the recurring-input pool
    n_templates: int  # recurring job templates alive at day 1
    adhoc_frac: float  # fraction of daily jobs that are ad-hoc
    seed: int
    n_input_weights: tuple[float, float, float] = (0.3, 0.5, 0.2)  # 1/2/3 inputs


# ~100x scaled-down analogues of the paper's four production clusters
# (Figure 9): cluster1 is the largest with the biggest plans, cluster4
# the smallest with the highest ad-hoc share.
PRODUCTION_CLUSTERS: list[ClusterConfig] = [
    ClusterConfig("cluster1", n_inputs=60, n_templates=180, adhoc_frac=0.19,
                  n_input_weights=(0.2, 0.45, 0.35), seed=11),
    ClusterConfig("cluster2", n_inputs=25, n_templates=120, adhoc_frac=0.07,
                  n_input_weights=(0.3, 0.5, 0.2), seed=22),
    ClusterConfig("cluster3", n_inputs=30, n_templates=85, adhoc_frac=0.14,
                  n_input_weights=(0.3, 0.5, 0.2), seed=33),
    ClusterConfig("cluster4", n_inputs=18, n_templates=45, adhoc_frac=0.17,
                  n_input_weights=(0.45, 0.4, 0.15), seed=44),
]


def tiny_cluster() -> ClusterConfig:
    """A miniature cluster for unit tests (tens of jobs per day)."""
    return ClusterConfig("tiny", n_inputs=6, n_templates=12, adhoc_frac=0.15, seed=7)


@dataclass
class InputTemplate:
    name: str
    base_card: float
    row_len: float


@dataclass
class PrepChain:
    """A reusable Scan→prep pipeline over one input (a common
    subexpression shared by every template that picks it)."""

    chain_id: str
    input_name: str
    # (logical kind, tpl_op_id, props, sel_param)
    specs: list[tuple[str, str, str, float]]

    def build_logical(self) -> PlanNode:
        node = PlanNode(
            op="Scan",
            input_templates=(self.input_name,),
            tpl_op_id=f"{self.chain_id}_extract",
            props=self.input_name,
        )
        for kind, op_id, props, sel in self.specs:
            node = PlanNode(op=kind, children=[node], tpl_op_id=op_id, props=props,
                            sel_param=sel)
        return node


@dataclass
class JobTemplate:
    tpl_id: str
    logical_root: PlanNode  # logical tree (re-planned by the optimizer)
    choices: dict  # the production planner's physical choices: the executed plan
    inputs: tuple[str, ...]
    freq: int
    born_day: int = 1
    dead_day: int | None = None  # exclusive; None = alive forever
    # What the simulator and the planners compile from the template:
    # name -> (the logical tree it was expanded from, its TemplatePlans).
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def alive(self, day: int) -> bool:
        return self.born_day <= day and (self.dead_day is None or day < self.dead_day)

    def compiled(self, name: str, source: PlanNode,
                 build: Callable[[], "TemplatePlans"]) -> "TemplatePlans":
        """Memo entry ``name``: ``build()`` of the logical tree ``source``,
        built again once the template holds another tree there."""
        hit = self.memo.get(name)
        if hit is None or hit[0] is not source:
            hit = self.memo[name] = (source, build())
        return hit[1]

    def executed(self) -> "TemplatePlans":
        """The executed plan, ``logical_root`` under ``choices``, expanded
        and compiled on first use as a one-plan set."""
        return self.compiled("executed", self.logical_root,
                             lambda: TemplatePlans.expand(self.logical_root, [self.choices]))


class TemplatePlans:
    """Physical plans of one template, compiled once: its executed plan
    alone (:meth:`JobTemplate.executed`: the log generator, Figs 17 and
    19) or its candidates (``cascades.candidate_plans``: both planners),
    each expanded from the logical tree (:meth:`expand`). It holds
    each plan's ``choices`` and ``candidate_costs`` key, the plans laid
    end to end over one table of distinct subtrees (``plans``, and its
    ``rows`` as an array), and the keys a job instance seeds
    (:func:`sim.plan_keys`). A one-plan set's lat slots are
    consecutive, so its rows are its positions, in order."""

    def __init__(self, roots: list[PlanNode], choices: list[dict]):
        self.choices = choices
        self.keys = [tuple(c.items()) for c in choices]
        self.plans = compile_plans(roots)
        self.rows = np.array(self.plans.rows, dtype=np.intp)
        self.draw_keys, self.seed_keys, self.lat_slot = sim.plan_keys(self.plans)

    @staticmethod
    def expand(logical_root: PlanNode, choices: list[dict]) -> "TemplatePlans":
        """The physical plans of ``logical_root`` under each of ``choices``."""
        roots = [expand_physical(logical_root, c) for c in choices]
        for root in roots:
            assign_input_templates(root)
        return TemplatePlans(roots, choices)

    def tree(self, j: int, partitions: list[int]) -> list[PlanNode]:
        """The nodes, in walk order, of plan ``j`` as a
        :class:`PlanNode` tree with ``partitions``."""
        plans, table = self.plans, self.plans.table
        lo = plans.starts[j]
        nodes: list[PlanNode] = []
        for i, p in zip(range(lo, plans.starts[j + 1]), partitions):
            r = plans.rows[i]
            nodes.append(PlanNode(
                op=table.op[r], children=[nodes[k - lo] for k in plans.kids[i]],
                input_templates=table.input_templates[r], tpl_op_id=table.tpl_op_id[r],
                props=table.props[r], sel_param=table.sel_param[r], partitions=p))
        return nodes


class Cluster:
    """One synthetic cluster: inputs, shared chains, templates, churn."""

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self.world = sim.World(cluster=cfg.name)
        g = np.random.default_rng(cfg.seed)
        self.inputs: dict[str, InputTemplate] = {}
        for i in range(cfg.n_inputs):
            name = f"{cfg.name}_in{i:03d}"
            self.inputs[name] = InputTemplate(
                name=name,
                base_card=float(np.exp(g.normal(math.log(2e6), 1.6))),
                row_len=float(g.uniform(40, 400)),
            )
        # Zipf-ish popularity over inputs: shared inputs create shared
        # subexpressions across templates.
        ranks = np.arange(1, cfg.n_inputs + 1, dtype=float)
        self.input_pop = (1.0 / ranks**1.1)
        self.input_pop /= self.input_pop.sum()
        self.input_names = list(self.inputs)
        # 1-3 canonical prep chains per input.
        self.chains: dict[str, list[PrepChain]] = {}
        for name in self.input_names:
            self.chains[name] = [
                self._make_chain(g, name, k) for k in range(int(g.integers(1, 4)))
            ]
        # Recurring templates with churn timeline.
        self.templates: list[JobTemplate] = []
        self._tpl_seq = 0
        for _ in range(cfg.n_templates):
            self.templates.append(self._make_template(g, born_day=1))
        self._churn_applied_through = 1
        self._churn_rng = np.random.default_rng(cfg.seed + 999)
        self._drift: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    def _make_chain(self, g: np.random.Generator, input_name: str, k: int) -> PrepChain:
        chain_id = f"{input_name}_ch{k}"
        specs = []
        for j in range(int(g.integers(1, 5))):
            kind = g.choice(["Filter", "Project", "Process"], p=[0.5, 0.3, 0.2])
            if kind == "Filter":
                sel = float(g.beta(2, 3))
            elif kind == "Project":
                sel = float(g.uniform(0, 1))
            else:
                sel = float(np.exp(g.normal(0.0, 0.4)))
            specs.append((str(kind), f"{chain_id}_op{j}", f"{chain_id}_p{j}", sel))
        return PrepChain(chain_id=chain_id, input_name=input_name, specs=specs)

    def _fresh_chain(self, g: np.random.Generator, input_name: str, tag: str) -> PrepChain:
        """A never-shared chain (for ad-hoc jobs with novel logic)."""
        c = self._make_chain(g, input_name, 0)
        return PrepChain(
            chain_id=f"{tag}_ch",
            input_name=input_name,
            specs=[(op, f"{tag}_op{j}", f"{tag}_p{j}", sel)
                   for j, (op, _, _, sel) in enumerate(c.specs)],
        )

    def _make_template(
        self, g: np.random.Generator, born_day: int, adhoc_tag: str | None = None
    ) -> JobTemplate:
        cfg = self.cfg
        if adhoc_tag is None:
            self._tpl_seq += 1
            tpl_id = f"{cfg.name}_t{self._tpl_seq:04d}"
        else:
            tpl_id = adhoc_tag
        n_in = int(g.choice([1, 2, 3], p=list(cfg.n_input_weights)))
        input_idx = g.choice(len(self.input_names), size=n_in, replace=False,
                             p=self.input_pop)
        subtrees: list[PlanNode] = []
        inputs: list[str] = []
        for ii in input_idx:
            name = self.input_names[int(ii)]
            inputs.append(name)
            if adhoc_tag is not None and g.random() > 0.7:
                chain = self._fresh_chain(g, name, f"{tpl_id}_{name}")
            else:
                pool = self.chains[name]
                chain = pool[int(g.integers(0, len(pool)))]
            subtrees.append(chain.build_logical())
        # Left-deep logical joins; the production planner's physical
        # choices (hash/merge, hash/stream, local pre-agg) are recorded
        # in ``choices`` so the optimizer experiments can re-plan.
        choices: dict[str, object] = {}
        jk = 0
        while len(subtrees) > 1:
            left = subtrees.pop(0)
            right = subtrees.pop(0)
            jk += 1
            jid = f"{tpl_id}_j{jk}"
            choices[jid] = "hash" if g.random() < 0.7 else "merge"
            key = int(g.integers(0, 5))
            join = PlanNode(op="Join", children=[left, right], tpl_op_id=jid,
                            props=f"jk{key}",
                            sel_param=float(np.exp(g.normal(-0.1, 0.5))))
            subtrees.insert(0, join)
        node = subtrees[0]
        if g.random() < 0.75:
            aid = f"{tpl_id}_ga"
            key = int(g.integers(0, 5))
            reduction = float(10 ** g.uniform(-3, -0.7))
            choices[f"{aid}:local"] = bool(g.random() < 0.3)
            choices[aid] = "hash" if g.random() < 0.6 else "stream"
            node = PlanNode(op="Aggregate", children=[node], tpl_op_id=aid,
                            props=f"ak{key}", sel_param=reduction)
        node = PlanNode(op="Output", children=[node], tpl_op_id=f"{tpl_id}_out")
        assign_input_templates(node)
        freq = int(g.choice(FREQ_CHOICES, p=FREQ_WEIGHTS)) if adhoc_tag is None else 1
        return JobTemplate(tpl_id=tpl_id, logical_root=node, choices=choices,
                           inputs=tuple(inputs), freq=freq, born_day=born_day)

    def live_templates(self, day: int) -> list[JobTemplate]:
        """The recurring templates alive on ``day``. The template
        timeline advances as far as ``day`` first: each day some
        recurring templates die and are replaced by fresh ones (workload
        drift, Fig 10 / Fig 14a coverage decay)."""
        while self._churn_applied_through < day:
            d = self._churn_applied_through + 1
            g = self._churn_rng
            for t in list(self.templates):
                if t.alive(d - 1) and t.dead_day is None and g.random() < CHURN:
                    t.dead_day = d
                    self.templates.append(self._make_template(g, born_day=d))
            self._churn_applied_through = d
        return [t for t in self.templates if t.alive(day)]

    # ------------------------------------------------------------------
    def _input_drift(self, name: str, day: int) -> float:
        """Random-walk daily size factor per input (Fig 2): the product,
        in day order, of one lognormal step per day since day 1. Memoized
        per ``(input, day)``, each day's factor extending the day
        before's."""
        if day < 2:
            return 1.0
        f = self._drift.get((name, day))
        if f is None:
            g = sim._rng(self.cfg.name, "drift", name, day)
            f = self._drift[name, day] = (
                self._input_drift(name, day - 1) * math.exp(g.normal(0.0, 0.15)))
        return f

    def instance_inputs(
        self, tpl: JobTemplate, day: int, k: int
    ) -> tuple[float, dict[str, float], dict[str, float]]:
        """(pm, base_cards, base_lens) for one job instance — the same
        draws :meth:`generate_days` uses, so planner experiments replay
        exactly the logged instances."""
        return self._instance_inputs(tpl, day, sim._rng("sizes", tpl.tpl_id, day, k))

    def _instance_inputs(
        self, tpl: JobTemplate, day: int, g_inst: np.random.Generator
    ) -> tuple[float, dict[str, float], dict[str, float]]:
        """:meth:`instance_inputs` from the instance's ``"sizes"``
        generator ``g_inst``."""
        pm = float(g_inst.random())
        base_cards: dict[str, float] = {}
        base_lens: dict[str, float] = {}
        for name in tpl.inputs:
            it = self.inputs[name]
            base_cards[name] = max(
                10.0,
                it.base_card * self._input_drift(name, day)
                * math.exp(g_inst.normal(0.0, 0.25)),
            )
            base_lens[name] = it.row_len
        return pm, base_cards, base_lens

    def runs(self, day: int) -> list[tuple[JobTemplate, int]]:
        """The ``(template, k)`` job runs of ``day`` in log order: every
        live recurring template ``freq`` times, then the day's ad-hoc
        jobs, each a fresh template run once. The ad-hoc templates are
        drawn from the day's own generator, so every call returns equal
        ones."""
        name = self.cfg.name
        g_day = np.random.default_rng(hash64(name, "day", day) & 0xFFFFFFFF)
        recurring = [(t, k) for t in self.live_templates(day) for k in range(t.freq)]
        n_adhoc = int(round(len(recurring) * self.cfg.adhoc_frac / (1 - self.cfg.adhoc_frac)))
        return recurring + [
            (self._make_template(g_day, born_day=day, adhoc_tag=f"{name}_adhoc_d{day}_{i}"), 0)
            for i in range(n_adhoc)
        ]

    def generate_days(self, days: list[int]) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Instantiate all jobs for ``days``; returns (ops_df, jobs_df).

        Each day's generators are seeded in one :class:`sim.RngBatch`
        over every run's ``"sizes"`` key and the seed keys of its
        template's executed plan (:meth:`JobTemplate.executed`), in run
        order. Every run is simulated on that compiled plan, whose rows
        are its positions, so the operator log extends column by column
        from the plan's table and the run's row statistics."""
        name = self.cfg.name
        ops: dict[str, list] = {c: [] for c in OP_COLUMNS}
        job_rows: list[dict] = []
        for day in days:
            runs = self.runs(day)
            plans = [tpl.executed() for tpl, _ in runs]
            seeds = np.fromiter(itertools.chain.from_iterable(
                (hash64("sizes", tpl.tpl_id, day, k) & 0xFFFF_FFFF,
                 *sim.instance_seeds(plan.seed_keys, (name, tpl.tpl_id, day, k)))
                for (tpl, k), plan in zip(runs, plans)), dtype=np.uint32)
            rngs = iter(sim.RngBatch(seeds))
            for seq, ((tpl, k), plan) in enumerate(zip(runs, plans), start=1):
                is_adhoc = tpl.tpl_id.startswith(f"{name}_adhoc")
                job_id = f"{name}_d{day}_{seq:05d}"
                pm, base_cards, base_lens = self._instance_inputs(tpl, day, next(rngs))
                inst = sim.instantiate_plan(plan.plans, plan.draw_keys, self.world, base_cards,
                                            base_lens, pm, rngs)
                table, n = plan.plans.table, len(plan.plans)
                for col, v in (("cluster", name), ("day", day), ("job_id", job_id),
                               ("template_id", tpl.tpl_id), ("adhoc", is_adhoc)):
                    ops[col].extend([v] * n)
                for col, v in (("op_id", table.tpl_op_id), ("op", table.op),
                               ("logical", table.logical), *table.identity().items()):
                    ops[col].extend(v)
                ops["pm"].extend([pm] * n)
                stats = inst.stats
                for col, attr in NODE_STATS.items():
                    ops[col].extend(getattr(stats, attr))
                ops["P"].extend(inst.partitions)
                ops["actual"].extend(inst.latencies)
                for col, true_cards in (("cost_default", False), ("cost_default_truecard", True)):
                    i, c = ((stats.true_in, stats.true_out) if true_cards
                            else (stats.est_in, stats.est_out))
                    ops[col].extend([dc.op_cost(name, *args) for args in
                                     zip(table.op, i, c, stats.row_len)])
                job_rows.append({
                    "cluster": name, "day": day, "job_id": job_id,
                    "template_id": tpl.tpl_id, "adhoc": is_adhoc,
                    "latency": sim.plan_latency(plan.plans, 0, inst.latencies),
                    "cpu_seconds": sim.plan_cpu_seconds(table.op, inst.partitions,
                                                        inst.latencies),
                    "n_ops": n,
                })
        return pd.DataFrame(ops), pd.DataFrame(job_rows)
