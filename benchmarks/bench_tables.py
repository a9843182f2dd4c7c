"""Benchmarks that regenerate every paper table over the SCOPE-like
substrate — one per table, as listed in DESIGN.md. Each run writes its
measured table to ``results/<name>.md`` (the source for
EXPERIMENTS.md) and asserts the paper-shape invariants.
"""
import pytest

from benchmarks._helpers import bench_table
from repro.experiments import (
    fig9,
    table1,
    table4,
    table5,
    table6,
    table7,
    table8,
    table23,
)


def test_bench_table1_loss_functions(benchmark, spark):
    df = bench_table(benchmark, "table1", lambda: table1.run(spark))
    err = df.set_index("model").median_error_pct
    # Table 1 ordering: MSLE best, MedAE worst. The paper's contrast is
    # far larger (246% vs 14%) because production runtimes carry extreme
    # outliers that our softened simulator noise does not (EXPERIMENTS.md).
    assert err["Mean Squared-Log Error"] <= err.min() + 1e-9
    assert err["Median Absolute Error"] > err["Mean Squared-Log Error"]


def test_bench_table23_features(benchmark):
    df = bench_table(benchmark, "table23", table23.run)
    # (Nearly) every Table 2/3 candidate feature is selected somewhere —
    # features with no smooth cost relation (the IN hash) may be zero
    # everywhere under L1 in a given training window.
    assert (df.models_with_nonzero_weight > 0).sum() >= 25
    # Influences are rounded to 4 decimals in the table.
    assert abs(df.normalized_influence.sum() - 1.0) < 0.01
    # Cardinality / per-partition features dominate the influence (Fig 5).
    top5 = set(df.head(5).feature)
    assert top5 & {"f_I", "f_B", "f_C", "f_LI", "f_LB", "f_IL_P", "f_CL_P",
                   "f_I_P", "f_C_P", "f_LlogI", "f_LlogB", "f_LlogC", "f_P",
                   "f_sqrtI_P", "f_sqrtC_P", "f_logI_P"}


def test_bench_table4_ml_models(benchmark, spark):
    df = bench_table(benchmark, "table4", lambda: table4.run(spark))
    by = df.set_index("model")
    assert by.loc["Elastic net", "median_error_pct"] < by.loc["Default", "median_error_pct"] / 2
    # Every learned algorithm beats the default cost model (Table 4).
    learned = by.drop(index="Default")
    assert (learned.median_error_pct < by.loc["Default", "median_error_pct"]).all()


def test_bench_table5_families(benchmark):
    df = bench_table(benchmark, "table5", table5.run)
    by = df.set_index("model")
    assert by.loc["Op-Subgraph", "coverage_pct"] < by.loc["Op-Input", "coverage_pct"]
    assert by.loc["Operator", "median_error_pct"] > by.loc["Op-Subgraph", "median_error_pct"]


def test_bench_table6_meta_learners(benchmark):
    df = bench_table(benchmark, "table6", table6.run)
    by = df.set_index("model")
    assert (by.drop(index="Default").median_error_pct
            < by.loc["Default", "median_error_pct"]).all()


def test_bench_table7_breakdown(benchmark):
    df = bench_table(benchmark, "table7", table7.run)
    assert set(df.jobs) == {"all", "ad-hoc"}


def test_bench_table8_clusters(benchmark):
    df = bench_table(benchmark, "table8", table8.run)
    assert len(df) == 4
    assert (df.learned_all_median_pct < df.default_median_pct / 2).all()
    assert (df.learned_all_corr > df.default_corr).all()


def test_bench_fig9_workload(benchmark, spark):
    df = bench_table(benchmark, "fig9", lambda: fig9.run(spark))
    assert len(df) == 12  # 4 clusters x 3 days
    c1 = df[df.cluster == "cluster1"].total_jobs.sum()
    c4 = df[df.cluster == "cluster4"].total_jobs.sum()
    assert c1 > 2 * c4  # cluster-size ordering of Figure 9
