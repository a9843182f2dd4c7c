"""Figure 17 (numeric) + Figure 8c — efficacy and efficiency of
partition exploration.

Paper setup (§6.5): 200 sub-expression (stage) instances; candidate
partition counts from the three sampling strategies (random, uniform,
geometric) at varying sample sizes, and from the analytical model, are
compared by the cost error of the chosen count versus the optimal
count, and by the number of model look-ups.

Method deviation, documented: the paper scores choices against the
*learned models'* exhaustively-probed optimum because it cannot
re-execute every count. Our learned models — trained on logs whose
partition counts only vary ~3x around the heuristic — price the
unobserved low-P region monotonically, so their full-range optimum
degenerates to P=1 for most stages and every strategy trivially "finds"
it. We instead exploit the substrate: choices are made with the learned
models (as in CLEO's planner: candidates restricted to the
identifiability window around the heuristic count, the same window the
planner uses), and scored against the *ground-truth* stage cost of the
simulator. The findings to reproduce keep their shape: the analytical
model matches multi-sample accuracy at a fraction of the look-ups, and
geometric sampling needs fewer samples than uniform/random.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.experiments.common import cluster_config, trained_cluster
from repro.optimizer import resource as res
from repro.scope import simulator as sim
from repro.scope.plan import assign_input_templates, expand_physical, plan_stages
from repro.scope.workload import Cluster

SAMPLE_SIZES = [2, 4, 6, 8, 10, 15, 20, 25, 30]


def _collect_stages(bank, cluster_name: str, n_stages: int, day: int = 3):
    """Exchange-rooted stages from logged day-``day`` plans: each stage's
    resource-context (its operators' cost curves under ``bank``) and the
    state needed to recompute true stage cost at any partition count."""
    cl = Cluster(cluster_config(cluster_name))
    out = []
    for tpl in cl.live_templates(day):
        pm, base_cards, base_lens = cl.instance_inputs(tpl, day, 0)
        seed = (cl.cfg.name, tpl.tpl_id, day, 0)
        root = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(root)
        sim.instantiate(root, cl.world, base_cards, base_lens, pm, seed)
        nodes = list(root.walk())
        curves = res.instance_curves(res.resolve_plan(bank, root), nodes, pm)
        row_of = {id(n): i for i, n in enumerate(nodes)}
        for stage in plan_stages(root):
            if stage[0].op != "Exchange":
                continue
            out.append(
                {
                    "ctx": curves[[row_of[id(n)] for n in stage]],
                    "nodes": list(stage),
                    "world": cl.world,
                    "pm": pm,
                    "seed": seed,
                    "p_default": stage[0].partitions,
                }
            )
            if len(out) >= n_stages:
                return out
    return out


def _true_stage_cost(entry: dict, p: int) -> float:
    """Ground-truth total stage latency with the stage at ``p``."""
    total = 0.0
    for node in entry["nodes"]:
        saved = node.partitions
        node.partitions = p
        total += entry["world"].exclusive_latency(node, entry["pm"], entry["seed"])
        node.partitions = saved
    return total


def run(cluster: str = "cluster1", n_stages: int = 200) -> pd.DataFrame:
    tc = trained_cluster(cluster)
    bank = tc.bank
    stages = _collect_stages(bank, cluster, n_stages)

    # Per-stage identifiability window (the planner's clamp) and the
    # true-optimal cost within it.
    windows = []
    true_opts = []
    for e in stages:
        lo, hi = res.exploration_window(e["p_default"])
        windows.append((lo, hi))
        grid = np.unique(np.linspace(lo, hi, 60).round().astype(int))
        true_opts.append(min(_true_stage_cost(e, int(p)) for p in grid))
    true_opts = np.array(true_opts)

    def score(choices: list[int]) -> float:
        costs = np.array(
            [_true_stage_cost(e, p) for e, p in zip(stages, choices)]
        )
        return float(np.median((costs - true_opts) / np.maximum(true_opts, 1e-9)))

    def choose_sampling(entry, window, candidates, counter) -> int:
        lo, hi = window
        cand = [c for c in candidates if lo <= c <= hi]
        if not cand:
            return entry["p_default"]
        return res.optimize_stage_sampling(entry["ctx"], cand, counter)

    rows = []
    for n in SAMPLE_SIZES:
        for strategy, cand_fn in (
            ("random", lambda n=n: res.random_samples(n, seed=42)),
            ("uniform", lambda n=n: res.uniform_samples(n)),
            ("geometric", lambda n=n: res.geometric_samples_n(n)),
        ):
            counter = res.LookupCounter()
            choices = [
                choose_sampling(e, w, cand_fn(), counter)
                for e, w in zip(stages, windows)
            ]
            rows.append(
                {
                    "strategy": strategy,
                    "n_samples": n,
                    "median_cost_error_pct": round(100 * score(choices), 2),
                    "lookups_per_stage": round(counter.lookups / len(stages), 1),
                }
            )
    counter = res.LookupCounter()
    choices = []
    for e, (lo, hi) in zip(stages, windows):
        p = res.optimize_stage_analytical(e["ctx"], counter)
        choices.append(int(np.clip(p, lo, hi)))
    rows.append(
        {
            "strategy": "analytical",
            "n_samples": 1,
            "median_cost_error_pct": round(100 * score(choices), 2),
            "lookups_per_stage": round(counter.lookups / len(stages), 1),
        }
    )
    return pd.DataFrame(rows)
