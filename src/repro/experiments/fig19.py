"""Figure 19 (numeric) + §6.6.1 — end-to-end performance of CLEO plans
on the production workload.

Paper findings to reproduce (cluster4, one virtual cluster):

- 22% of jobs change plans with partition exploration off; 39% with it
  on (we report both, against the *logged* production plans);
- ~70% of changed plans improve latency;
- average latency improvement 15.35%, cumulative 21.3%;
- total processing time falls 32.2% on average, 40.4% cumulatively;
- most improved jobs use a *smaller* degree of parallelism (10 of 12);
- optimizer-time overhead of invoking learned models is small (5-10%),
  i.e. CLEO plans in 1.05-1.10x the default planner's time.

Baseline = the plan the production runtime executed (the logged
template choices + heuristic partitions); CLEO = CleoPlanner with the
learned bank trained on days 1-2. Both plans of each job are executed
in the ground-truth simulator under common random numbers.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.models import train_bank
from repro.experiments.common import cluster_config, get_logs
from repro.optimizer.cascades import CleoPlanner, DefaultPlanner
from repro.scope import simulator as sim
from repro.scope.plan import (
    assign_input_templates,
    expand_physical,
    operator_signature,
    plan_signature,
)
from repro.scope.workload import Cluster

PAPER = {
    "changed_plans_pct (impl only)": 22,
    "changed_plans_pct (with partition exploration)": 39,
    "improved_pct_of_changed": 70,
    "avg_latency_improvement_pct": 15.35,
    "cumulative_latency_improvement_pct": 21.3,
    "avg_cpu_reduction_pct": 32.2,
    "cumulative_cpu_reduction_pct": 40.4,
    "improved_with_less_parallelism_pct": 83,  # 10 of 12 jobs
    "cleo_planning_ms_per_job": float("nan"),
    "default_planning_ms_per_job": float("nan"),
    # Learned-model look-ups add 5-10% to compile time inside SCOPE's
    # optimizer (§6.6.1).
    "cleo_vs_default_planning_x": "1.05-1.10",
    "cleo_model_lookups_per_job": float("nan"),
}


def _bank_for(cluster_name: str):
    ops, _ = get_logs(cluster_name)
    return train_bank(ops[ops.day <= 2])


def run(cluster: str = "cluster4", max_jobs: int = 120, day: int = 3) -> pd.DataFrame:
    cl = Cluster(cluster_config(cluster))
    bank = _bank_for(cluster)
    planner = CleoPlanner(bank)
    planner_noexp = CleoPlanner(bank, explore_partitions=False)
    recs = []
    for tpl in cl.live_templates(day)[:max_jobs]:
        pm, base_cards, base_lens = cl.instance_inputs(tpl, day, 0)
        seed = (cl.cfg.name, tpl.tpl_id, day, 0)
        base = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(base)
        sim.instantiate(base, cl.world, base_cards, base_lens, pm, seed)
        base_planner = DefaultPlanner(cluster)
        t_base = base_planner.plan(tpl, cl.world, base_cards, base_lens, pm, seed)
        r = planner.plan(tpl, cl.world, base_cards, base_lens, pm, seed)
        r0 = planner_noexp.plan(tpl, cl.world, base_cards, base_lens, pm, seed)
        recs.append(
            {
                "lat_base": sim.job_latency(base),
                "lat_cleo": r.actual_latency,
                "cpu_base": sim.job_cpu_seconds(base),
                "cpu_cleo": r.cpu_seconds,
                "changed_impl": operator_signature(r0.root) != operator_signature(base),
                "changed_any": plan_signature(r.root) != plan_signature(base),
                "p_base": float(np.mean([n.partitions for n in base.walk()])),
                "p_cleo": float(np.mean([n.partitions for n in r.root.walk()])),
                "plan_s_default": t_base.planning_seconds,
                "plan_s_cleo": r.planning_seconds,
                "lookups": r.lookups,
            }
        )
    df = pd.DataFrame(recs)
    ch = df["changed_any"].to_numpy()
    imp = (df["lat_base"] - df["lat_cleo"]) / df["lat_base"]
    cpu = (df["cpu_base"] - df["cpu_cleo"]) / df["cpu_base"]
    less = (df["p_cleo"] < df["p_base"]).to_numpy()
    improved = (imp > 0).to_numpy()
    measured = {
        "changed_plans_pct (impl only)": 100 * df["changed_impl"].mean(),
        "changed_plans_pct (with partition exploration)": 100 * ch.mean(),
        "improved_pct_of_changed": 100 * improved[ch].mean(),
        "avg_latency_improvement_pct": 100 * imp[ch].mean(),
        "cumulative_latency_improvement_pct": 100
        * (1 - df.loc[ch, "lat_cleo"].sum() / df.loc[ch, "lat_base"].sum()),
        "avg_cpu_reduction_pct": 100 * cpu[ch].mean(),
        "cumulative_cpu_reduction_pct": 100
        * (1 - df.loc[ch, "cpu_cleo"].sum() / df.loc[ch, "cpu_base"].sum()),
        "improved_with_less_parallelism_pct": 100 * less[ch & improved].mean(),
        "cleo_planning_ms_per_job": 1000 * df["plan_s_cleo"].mean(),
        "default_planning_ms_per_job": 1000 * df["plan_s_default"].mean(),
        "cleo_vs_default_planning_x": df["plan_s_cleo"].sum() / df["plan_s_default"].sum(),
        "cleo_model_lookups_per_job": df["lookups"].mean(),
    }
    return pd.DataFrame(
        [
            {"metric": k, "measured": round(v, 1), "paper": PAPER[k]}
            for k, v in measured.items()
        ]
    )
