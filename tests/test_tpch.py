"""TPC-H-lite correctness: every query, hinted and unhinted, against
the DuckDB oracle (SF=0.01)."""
import numpy as np
import pytest

from repro.oracle import assert_equivalent
from repro.tpch.planner import CANDIDATE_CONFIGS, DEFAULT_CONFIG, _features
from repro.tpch.queries import QUERIES
from repro.tpch.schema import TABLES, load_tables

QUERY_NAMES = list(QUERIES)


@pytest.fixture(scope="module")
def tpch_tables(spark):
    return load_tables(spark, sf=0.01)


def test_all_tables_registered(spark, tpch_tables):
    assert set(tpch_tables) == set(TABLES)
    for t in TABLES:
        assert spark.table(t).count() == len(tpch_tables[t]) > 0


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_query_matches_oracle_default_plan(spark, tpch_tables, name):
    q = QUERIES[name]
    params = q.params(5)
    sdf = spark.sql(q.sql(params))
    assert_equivalent(sdf, q.sql(params), **tpch_tables)


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_query_matches_oracle_hash_hint(spark, tpch_tables, name):
    """The shuffle-hash physical plan must produce identical rows —
    plan choice cannot change semantics."""
    q = QUERIES[name]
    params = q.params(11)
    sdf = spark.sql(q.sql(params, hint=q.hint_clause("shuffle_hash")))
    assert_equivalent(sdf, q.sql(params), **tpch_tables)


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_params_deterministic(name):
    q = QUERIES[name]
    assert q.params(3) == q.params(3)
    # Parameters vary across seeds (some coincidences allowed for
    # low-cardinality parameter domains).
    distinct = {tuple(sorted(q.params(s).items())) for s in range(8)}
    assert len(distinct) >= 2


def test_hint_clause_formats():
    q = QUERIES["q8"]
    assert q.hint_clause("default") == ""
    assert q.hint_clause("shuffle_hash") == "/*+ SHUFFLE_HASH(l, o) */ "


def test_hint_changes_physical_plan(spark, tpch_tables):
    """SHUFFLE_HASH hint must actually flip the join operator in the
    executed Spark plan (Catalyst picks it up)."""
    q = QUERIES["q12"]
    params = q.params(5)
    plan_default = spark.sql(q.sql(params))._jdf.queryExecution().executedPlan().toString()
    plan_hash = spark.sql(
        q.sql(params, hint=q.hint_clause("shuffle_hash"))
    )._jdf.queryExecution().executedPlan().toString()
    assert "SortMergeJoin" in plan_default
    assert "ShuffledHashJoin" in plan_hash


def test_config_features_distinct():
    rows = [tuple(_features(c, 0)) for c in CANDIDATE_CONFIGS]
    assert len(set(rows)) == len(rows)
    assert DEFAULT_CONFIG in CANDIDATE_CONFIGS


def test_run_query_measures_latency(spark, tpch_tables):
    from repro.tpch.planner import run_query

    q = QUERIES["q1"]
    lat = run_query(spark, q, q.params(0), ("default", 8))
    assert lat > 0
    # Shuffle-partitions conf must be restored afterwards.
    assert spark.conf.get("spark.sql.shuffle.partitions") != "8"
