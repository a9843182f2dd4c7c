"""Benchmarks for the optimizer-integration results: Figure 17
(partition exploration) and Figure 19 (production replanning)."""
from benchmarks._helpers import bench_table
from repro.experiments import fig17, fig19


def test_bench_fig17_partition_exploration(benchmark):
    df = bench_table(benchmark, "fig17", fig17.run)
    ana = df[df.strategy == "analytical"].iloc[0]
    geo = df[df.strategy == "geometric"].set_index("n_samples")
    # Analytical beats small-sample sampling (Fig 17) at a fraction of
    # the look-ups (Fig 8c).
    assert ana.median_cost_error_pct <= geo.median_cost_error_pct.loc[4] + 1e-9
    assert ana.lookups_per_stage < geo.lookups_per_stage.loc[20]
    # Geometric beats uniform in the 10-20 sample regime (Fig 17).
    uni = df[df.strategy == "uniform"].set_index("n_samples")
    assert geo.median_cost_error_pct.loc[15] <= uni.median_cost_error_pct.loc[15] + 5


def test_bench_fig19_production(benchmark):
    df = bench_table(benchmark, "fig19", fig19.run)
    m = df.set_index("metric").measured
    # Majority of changed plans improve; latency and processing time
    # both improve in aggregate (Fig 19a/19b).
    assert m["improved_pct_of_changed"] > 50
    assert m["cumulative_latency_improvement_pct"] > 0
    assert m["cumulative_cpu_reduction_pct"] > 0
    assert m["changed_plans_pct (with partition exploration)"] >= m[
        "changed_plans_pct (impl only)"
    ] - 5
