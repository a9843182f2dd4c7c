"""Smoke + shape tests for the table/figure harnesses.

Full-scale runs live in benchmarks/; here we verify the harness logic
on the production clusters (built once per process, shared) and that
each output carries the paper-comparison columns.
"""
import dataclasses

import numpy as np
import pytest

from repro.core.models import train_bank
from repro.experiments import common


@pytest.fixture(scope="module")
def tc1():
    return common.trained_cluster("cluster1")


def test_trained_cluster_is_memoized_and_driver_trained(tc1):
    assert common.trained_cluster("cluster1") is tc1
    bank = train_bank(tc1.train)
    for f in dataclasses.fields(bank):
        assert np.array_equal(getattr(tc1.bank, f.name), getattr(bank, f.name)), f.name


def test_trained_cluster_artifacts(tc1):
    assert tc1.bank.n_models("Operator") >= 10
    assert tc1.bank.n_models("Op-Subgraph") > 50
    assert "pred_combined" in tc1.scored_test.columns
    assert len(tc1.scored_test) == len(tc1.test)


def test_model_rows_layout(tc1):
    rows = common.model_rows(tc1.scored_test, include_p95=True)
    assert [r["model"] for r in rows] == [
        "Default", "Op-Subgraph", "Op-SubgraphApprox", "Op-Input", "Operator",
        "Combined",
    ]
    for r in rows:
        assert set(r) >= {"correlation", "median_error_pct", "coverage_pct",
                          "p95_error_pct"}


def test_table5_shape_matches_paper(tc1):
    from repro.experiments import table5

    df = table5.run()
    by = df.set_index("model")
    # Accuracy ladder: specialized models beat the operator model;
    # every learned model beats Default by a wide margin.
    assert by.loc["Op-Subgraph", "median_error_pct"] < by.loc["Operator", "median_error_pct"]
    assert by.loc["Combined", "median_error_pct"] < by.loc["Operator", "median_error_pct"]
    assert by.loc["Default", "median_error_pct"] > 3 * by.loc["Combined", "median_error_pct"]
    # Coverage ladder (§4.2).
    cov = by["coverage_pct"]
    assert cov["Op-Subgraph"] <= cov["Op-SubgraphApprox"] <= cov["Op-Input"] + 0.5
    assert cov["Operator"] == 100.0 and cov["Combined"] == 100.0
    assert cov["Op-Subgraph"] < 90
    # Correlation: learned >> default.
    assert by.loc["Combined", "correlation"] > 0.6
    assert by.loc["Default", "correlation"] < 0.4


def test_table7_adhoc_degrades_gracefully(tc1):
    from repro.experiments import table7

    df = table7.run().set_index(["jobs", "model"])
    # Ad-hoc coverage of specialized models drops but stays non-trivial (§6.2).
    assert df.loc[("ad-hoc", "Op-Subgraph"), "coverage_pct"] < df.loc[
        ("all", "Op-Subgraph"), "coverage_pct"
    ]
    assert df.loc[("ad-hoc", "Op-Subgraph"), "coverage_pct"] > 10
    # Combined still covers everything and stays far better than Default.
    assert df.loc[("ad-hoc", "Combined"), "coverage_pct"] == 100.0
    assert (
        df.loc[("ad-hoc", "Combined"), "median_error_pct"]
        < df.loc[("ad-hoc", "Default"), "median_error_pct"] / 2
    )


def test_fig9_workload_composition(spark):
    from repro.experiments import fig9

    df = fig9.run(spark, clusters=("cluster4",))
    assert set(df.cluster) == {"cluster4"}
    assert len(df) == 3  # three days
    assert (df.total_jobs >= df.recurring_jobs).all()
    assert (df.total_subexpr >= df.common_subexpr).all()
    # Most subexpressions are common (Fig 9: ~80%).
    assert (df.common_subexpr / df.total_subexpr > 0.4).all()
    assert (df.adhoc_subexpr > 0).all()


def test_fig17_partition_exploration(tc1):
    from repro.experiments import fig17

    df = fig17.run(n_stages=25)
    assert set(df.strategy) == {"random", "uniform", "geometric", "analytical"}
    geo = df[df.strategy == "geometric"].set_index("n_samples")
    # More samples -> no worse cost error.
    assert geo.median_cost_error_pct.iloc[-1] <= geo.median_cost_error_pct.iloc[0] + 1e-9
    ana = df[df.strategy == "analytical"].iloc[0]
    # The analytical approach uses far fewer look-ups than dense sampling.
    dense = df[(df.strategy == "geometric") & (df.n_samples == 30)].iloc[0]
    assert ana.lookups_per_stage < dense.lookups_per_stage / 5


def test_cv_helpers(tc1):
    from repro.experiments.cv import cv_table, subgraph_cv

    preds = subgraph_cv(tc1.train, "losses", max_groups=8, min_rows=10)
    out = cv_table(preds)
    assert set(out.model) == {
        "Median Absolute Error", "Mean Absolute Error", "Mean Squared Error",
        "Mean Squared-Log Error",
    }
    assert (out.median_error_pct > 0).all()


def test_cv_fit_failure_fails_the_table(tc1, monkeypatch):
    from repro.experiments import cv

    def broken():
        raise RuntimeError("fit failed")

    monkeypatch.setitem(cv.REGISTRIES, "broken", {"Broken": broken})
    with pytest.raises(RuntimeError, match="fit failed"):
        cv.subgraph_cv(tc1.train, "broken", max_groups=2, min_rows=10)


def test_fig20_paper_reference_table():
    from repro.experiments.fig20 import PAPER_CHANGED

    assert PAPER_CHANGED["q17"] < 0  # the paper's one regression
    assert sum(v > 0 for v in PAPER_CHANGED.values()) == 5
