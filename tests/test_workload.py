"""Tests for the recurring-workload generator (§2.2 / Figure 9)."""
import numpy as np
import pytest

from repro.scope.workload import (
    PRODUCTION_CLUSTERS,
    Cluster,
    ClusterConfig,
    tiny_cluster,
)


def test_deterministic_generation(tiny):
    cl, ops, jobs = tiny
    ops2, jobs2 = Cluster(tiny_cluster()).generate_days([1, 2, 3])
    assert np.array_equal(ops.actual.to_numpy(), ops2.actual.to_numpy())
    assert list(jobs.job_id) == list(jobs2.job_id)


def test_ops_schema(tiny):
    _, ops, _ = tiny
    for col in ("cluster", "day", "job_id", "template_id", "adhoc", "op", "logical",
                "depth", "cl", "sig_sub", "sig_approx", "sig_opinput", "in_hash",
                "pm", "I", "B", "C", "L", "P", "true_I", "true_B", "true_C",
                "actual", "cost_default", "cost_tuned", "cost_default_truecard"):
        assert col in ops.columns, col


def test_job_counts_match_ops(tiny):
    _, ops, jobs = tiny
    assert set(ops.job_id) == set(jobs.job_id)
    per_job = ops.groupby("job_id").size()
    assert (jobs.set_index("job_id").n_ops == per_job).all()


def test_adhoc_fraction_close_to_config(tiny):
    cl, _, jobs = tiny
    frac = jobs.adhoc.mean()
    assert abs(frac - cl.cfg.adhoc_frac) < 0.07


def test_recurring_jobs_repeat_across_days(tiny):
    _, _, jobs = tiny
    rec = jobs[~jobs.adhoc]
    per_day = rec.groupby("template_id").day.nunique()
    assert (per_day >= 2).mean() > 0.8  # most templates run on most days


def test_adhoc_templates_never_repeat(tiny):
    _, _, jobs = tiny
    ad = jobs[jobs.adhoc]
    assert ad.groupby("template_id").size().max() == 1


def test_common_subexpressions_shared_across_templates(tiny):
    """Prep-chain sharing must create identical subgraph signatures in
    different templates (Fig 4)."""
    _, ops, _ = tiny
    day1 = ops[ops.day == 1]
    sig_templates = day1.groupby("sig_sub").template_id.nunique()
    assert (sig_templates > 1).sum() > 0


def test_adhoc_jobs_share_subexpressions_with_recurring(tiny):
    _, ops, _ = tiny
    rec_sigs = set(ops[~ops.adhoc].sig_sub)
    ad = ops[ops.adhoc]
    assert ad.sig_sub.isin(rec_sigs).mean() > 0.2  # §6.2


def test_input_sizes_drift_across_days(tiny):
    cl, ops, _ = tiny
    rec = ops[(~ops.adhoc) & (ops.op == "Extract")]
    by_day = rec.groupby(["template_id", "op_id", "day"]).true_B.mean().unstack()
    by_day = by_day.dropna()
    assert (by_day[1] != by_day[3]).any()


def test_freq_distribution(tiny):
    cl, _, jobs = tiny
    rec = jobs[(~jobs.adhoc) & (jobs.day == 1)]
    runs = rec.groupby("template_id").size()
    assert runs.min() >= 1 and runs.max() <= 24


def test_churn_replaces_templates():
    cfg = ClusterConfig("churny", n_inputs=6, n_templates=30, adhoc_frac=0.1,
                        churn=0.3, seed=1)
    cl = Cluster(cfg)
    live = cl.live_templates(5)
    dead = [t for t in cl.templates if t.dead_day is not None]
    born_later = [t for t in cl.templates if t.born_day > 1]
    assert dead and born_later
    assert len(dead) == len(born_later)
    # Every template that died was replaced the same day.
    assert len(live) == cfg.n_templates
    assert not {id(t) for t in dead} & {id(t) for t in live}


def test_production_cluster_configs():
    names = [c.name for c in PRODUCTION_CLUSTERS]
    assert names == ["cluster1", "cluster2", "cluster3", "cluster4"]
    # cluster1 biggest, cluster4 smallest (Figure 9).
    assert PRODUCTION_CLUSTERS[0].n_templates > PRODUCTION_CLUSTERS[3].n_templates


def test_signatures_stable_across_instances(tiny):
    """The same template operator keeps its signature over days —
    that's what makes the model key a *template* (§3.1)."""
    _, ops, _ = tiny
    rec = ops[~ops.adhoc]
    nun = rec.groupby(["template_id", "op_id"]).sig_sub.nunique()
    assert (nun == 1).all()


def test_instance_inputs_replay(tiny):
    cl, _, _ = tiny
    tpl = cl.templates[0]
    a = cl.instance_inputs(tpl, 2, 0)
    b = cl.instance_inputs(tpl, 2, 0)
    assert a == b
    c = cl.instance_inputs(tpl, 3, 0)
    assert c != a


def test_latencies_heavy_tailed(tiny):
    _, ops, _ = tiny
    q = ops.actual.quantile([0.5, 0.99])
    assert q[0.99] / q[0.5] > 5  # cloud workloads are heavy-tailed
