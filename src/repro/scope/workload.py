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
Scales are ~100× below the paper's production trace (DESIGN.md).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.scope import default_cost as dc
from repro.scope import simulator as sim
from repro.scope.plan import (
    PlanNode,
    assign_input_templates,
    expand_physical,
    hash64,
    plan_identity,
)

FREQ_CHOICES = [1, 2, 4, 8, 24]
FREQ_WEIGHTS = [0.50, 0.20, 0.15, 0.10, 0.05]


@dataclass
class ClusterConfig:
    name: str
    n_inputs: int  # size of the recurring-input pool
    n_templates: int  # recurring job templates alive at day 1
    adhoc_frac: float  # fraction of daily jobs that are ad-hoc
    n_input_weights: tuple[float, float, float] = (0.3, 0.5, 0.2)  # 1/2/3 inputs
    churn: float = 0.03  # daily probability a template is replaced
    seed: int = 0


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


def tiny_cluster(seed: int = 7) -> ClusterConfig:
    """A miniature cluster for unit tests (tens of jobs per day)."""
    return ClusterConfig("tiny", n_inputs=6, n_templates=12, adhoc_frac=0.15, seed=seed)


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
    choices: dict  # the production planner's physical choices
    root: PlanNode  # the executed physical plan (= expand(logical, choices))
    inputs: tuple[str, ...]
    freq: int
    born_day: int = 1
    dead_day: int | None = None  # exclusive; None = alive forever

    def alive(self, day: int) -> bool:
        return self.born_day <= day and (self.dead_day is None or day < self.dead_day)


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
        physical = expand_physical(node, choices)
        assign_input_templates(physical)
        freq = int(g.choice(FREQ_CHOICES, p=FREQ_WEIGHTS)) if adhoc_tag is None else 1
        return JobTemplate(tpl_id=tpl_id, logical_root=node, choices=choices,
                           root=physical, inputs=tuple(inputs),
                           freq=freq, born_day=born_day)

    def live_templates(self, day: int) -> list[JobTemplate]:
        """The recurring templates alive on ``day``. The template
        timeline advances as far as ``day`` first: each day some
        recurring templates die and are replaced by fresh ones (workload
        drift, Fig 10 / Fig 14a coverage decay)."""
        while self._churn_applied_through < day:
            d = self._churn_applied_through + 1
            g = self._churn_rng
            for t in list(self.templates):
                if t.alive(d - 1) and t.dead_day is None and g.random() < self.cfg.churn:
                    t.dead_day = d
                    self.templates.append(self._make_template(g, born_day=d))
            self._churn_applied_through = d
        return [t for t in self.templates if t.alive(day)]

    # ------------------------------------------------------------------
    def _input_drift(self, name: str, day: int) -> float:
        """Random-walk daily size factor per input (Fig 2)."""
        f = 1.0
        for d in range(2, day + 1):
            g = sim._rng(self.cfg.name, "drift", name, d)
            f *= math.exp(g.normal(0.0, 0.15))
        return f

    def instance_inputs(
        self, tpl: JobTemplate, day: int, k: int
    ) -> tuple[float, dict[str, float], dict[str, float]]:
        """(pm, base_cards, base_lens) for one job instance — the same
        draws :meth:`generate_days` uses, so planner experiments replay
        exactly the logged instances."""
        g_inst = sim._rng("sizes", tpl.tpl_id, day, k)
        pm = float(g_inst.random())
        base_cards: dict[str, float] = {}
        base_lens: dict[str, float] = {}
        for name in set(tpl.root.input_templates):
            it = self.inputs[name]
            base_cards[name] = max(
                10.0,
                it.base_card * self._input_drift(name, day)
                * math.exp(g_inst.normal(0.0, 0.25)),
            )
            base_lens[name] = it.row_len
        return pm, base_cards, base_lens

    def generate_days(self, days: list[int]) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Instantiate all jobs for ``days``; returns (ops_df, jobs_df)."""
        op_rows: list[dict] = []
        job_rows: list[dict] = []
        for day in days:
            g_day = np.random.default_rng(hash64(self.cfg.name, "day", day) & 0xFFFFFFFF)
            recurring_runs = [(t, k) for t in self.live_templates(day) for k in range(t.freq)]
            n_adhoc = int(round(
                len(recurring_runs) * self.cfg.adhoc_frac / (1 - self.cfg.adhoc_frac)
            ))
            adhoc = [
                (self._make_template(g_day, born_day=day,
                                     adhoc_tag=f"{self.cfg.name}_adhoc_d{day}_{i}"), 0)
                for i in range(n_adhoc)
            ]
            seq = 0
            for tpl, k in recurring_runs + adhoc:
                seq += 1
                is_adhoc = tpl.tpl_id.startswith(f"{self.cfg.name}_adhoc")
                job_id = f"{self.cfg.name}_d{day}_{seq:05d}"
                pm, base_cards, base_lens = self.instance_inputs(tpl, day, k)
                sim.instantiate(tpl.root, self.world, base_cards, base_lens, pm,
                                seed_parts=(self.cfg.name, tpl.tpl_id, day, k))
                ident = plan_identity(tpl.root)
                for i, node in enumerate(tpl.root.walk()):
                    op_rows.append(self._op_row(node, {c: v[i] for c, v in ident.items()},
                                                job_id, tpl, day, is_adhoc, pm))
                job_rows.append({
                    "cluster": self.cfg.name, "day": day, "job_id": job_id,
                    "template_id": tpl.tpl_id, "adhoc": is_adhoc,
                    "latency": sim.job_latency(tpl.root),
                    "cpu_seconds": sim.job_cpu_seconds(tpl.root),
                    "n_ops": ident["cl"][-1],
                })
        return pd.DataFrame(op_rows), pd.DataFrame(job_rows)

    def _op_row(self, node: PlanNode, ident: dict, job_id: str, tpl: JobTemplate,
                day: int, is_adhoc: bool, pm: float) -> dict:
        """One operator-log row; ``ident`` is the node's entry of
        :func:`plan_identity`."""
        return {
            "cluster": self.cfg.name,
            "day": day,
            "job_id": job_id,
            "template_id": tpl.tpl_id,
            "adhoc": is_adhoc,
            "op_id": node.tpl_op_id,
            "op": node.op,
            "logical": node.logical,
            "depth": ident["depth"],
            "cl": ident["cl"],
            "sig_sub": ident["sig_sub"],
            "sig_approx": ident["sig_approx"],
            "sig_opinput": ident["sig_opinput"],
            "in_hash": ident["in_hash"],
            "pm": pm,
            "I": node.est_in,
            "B": node.est_base,
            "C": node.est_out,
            "L": node.row_len,
            "P": node.partitions,
            "true_I": node.true_in,
            "true_B": node.true_base,
            "true_C": node.true_out,
            "actual": node.actual_latency,
            "cost_default": dc.default_cost(self.cfg.name, node),
            "cost_tuned": dc.tuned_cost(self.cfg.name, node),
            "cost_default_truecard": dc.default_cost(self.cfg.name, node, true_cards=True),
        }
