"""Unit tests for repro.metrics — the paper's evaluation metrics."""
import numpy as np
import pandas as pd
import pytest

from repro import metrics


def test_relative_errors_basic():
    e = metrics.relative_errors([110, 90], [100, 100])
    assert np.allclose(e, [0.1, 0.1])


def test_relative_errors_asymmetric_scale():
    # 2x over and 2x under are 100% and 50% error respectively (paper
    # reports |p-a|/a, not a symmetric ratio).
    e = metrics.relative_errors([200, 50], [100, 100])
    assert np.allclose(e, [1.0, 0.5])


def test_median_error_pct_exact():
    assert metrics.median_error_pct([150, 100, 50], [100, 100, 100]) == pytest.approx(50.0)


def test_median_error_pct_perfect():
    assert metrics.median_error_pct([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_median_error_empty_is_nan():
    assert np.isnan(metrics.median_error_pct([], []))


def test_p95_error_pct():
    pred = np.ones(100) * 100.0
    actual = np.ones(100) * 100.0
    actual[:8] = 10.0  # 8% of rows have 900% error -> p95 lands on them
    assert metrics.p95_error_pct(pred, actual) > 800


def test_pearson_perfect():
    a = np.arange(10.0)
    assert metrics.pearson(a * 3 + 1, a) == pytest.approx(1.0)


def test_pearson_anticorrelated():
    a = np.arange(10.0)
    assert metrics.pearson(-a, a) == pytest.approx(-1.0)


def test_pearson_degenerate_nan():
    assert np.isnan(metrics.pearson([1.0, 1.0], [1.0, 2.0]))


def test_summarize_keys():
    s = metrics.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert set(s) == {"correlation", "median_error_pct", "p95_error_pct", "n"}
    assert s["n"] == 3


def test_zero_actual_guarded():
    # Division by zero actuals must not produce inf.
    e = metrics.relative_errors([1.0], [0.0])
    assert np.isfinite(e).all()


def test_summarize_agrees_with_duckdb_median():
    # Cross-check the median error against DuckDB on the same data.
    import duckdb

    g = np.random.default_rng(2)
    pdf = pd.DataFrame(
        {"pred": np.exp(g.normal(0, 1, 300)), "actual": np.exp(g.normal(0, 1, 300))}
    )
    s = metrics.summarize(pdf["pred"].to_numpy(), pdf["actual"].to_numpy())
    con = duckdb.connect()
    con.register("t", pdf)
    med = con.execute(
        "SELECT median(abs(pred - actual) / actual) FROM t"
    ).fetchone()[0]
    con.close()
    assert s["median_error_pct"] == pytest.approx(med * 100, rel=1e-12)


def test_fmt_table_renders_markdown():
    out = metrics.fmt_table([{"a": 1, "b": 2.5}, {"a": 3, "b": float("nan")}])
    lines = out.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1].startswith("|---")
    assert "2.50" in lines[2] and "-" in lines[3]
