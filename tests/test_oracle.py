"""Tests for the DuckDB result-equality oracle itself."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


def test_oracle_accepts_equal(spark):
    pdf = pd.DataFrame({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
    sdf = spark.createDataFrame(pdf).groupBy("k").sum("v").withColumnRenamed(
        "sum(v)", "s"
    )
    assert_equivalent(sdf, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_wrong_rows(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
    sdf = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [99.0, 2.0]}))
    with pytest.raises(AssertionError):
        assert_equivalent(sdf, "SELECT k, v AS s FROM t", t=pdf)


def test_oracle_rejects_column_mismatch(spark):
    pdf = pd.DataFrame({"k": [1]})
    sdf = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(sdf, "SELECT k FROM t", t=pdf)


def test_oracle_order_insensitive(spark):
    pdf = pd.DataFrame({"k": [3, 1, 2]})
    sdf = spark.createDataFrame(pd.DataFrame({"k": [2, 3, 1]}))
    assert_equivalent(sdf, "SELECT k FROM t", t=pdf)


def test_oracle_float_tolerance(spark):
    pdf = pd.DataFrame({"v": [1.0000000001, 2.0]})
    sdf = spark.createDataFrame(pd.DataFrame({"v": [1.0, 2.0]}))
    assert_equivalent(sdf, "SELECT v FROM t", t=pdf)
