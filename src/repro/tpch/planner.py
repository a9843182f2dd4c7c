"""Learned-cost-model plan selection for TPC-H-lite on real Spark
(Figure 20).

The decision surface mirrors §6.6.2's plan changes: the physical join
implementation (Spark's sort-merge default vs shuffle-hash, injected as
a join hint — Catalyst's physical-planning choice point) and the
shuffle partition count (``spark.sql.shuffle.partitions`` — the Exchange
partitioning choice). For each query template we:

1. run a handful of training configurations with parameter-randomized
   instances, logging wall-clock latency and features;
2. fit the same elastic net used for operator-subgraph models on the
   log latency (one specialized model per query template — the
   operator-subgraph analogue at query granularity);
3. let the model pick the configuration with minimum predicted latency
   for a fresh test instance;
4. execute the test instance under Spark's default plan and under the
   learned choice, and report the latency delta.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.learners.linear import ElasticNet
from repro.session import SHUFFLE_PARTITIONS
from repro.tpch.queries import QUERIES, Query

# (join strategy, shuffle partitions). The first entry is Spark's
# default plan: sort-merge under the disabled-broadcast session, at the
# session's shuffle-partition count (``repro.session``).
DEFAULT_CONFIG = ("default", SHUFFLE_PARTITIONS)
CANDIDATE_CONFIGS: list[tuple[str, int]] = [
    (strategy, partitions)
    for strategy in ("default", "shuffle_hash")
    for partitions in (SHUFFLE_PARTITIONS, 16, 4)
]
TRAIN_SEEDS = (0, 1)  # parameter instances each configuration trains on
TEST_SEED = 99  # the fresh instance the model plans
REPEATS = 2  # timed runs per plan of the test instance; the median counts


def run_query(spark: SparkSession, q: Query, params: dict, config: tuple[str, int]
              ) -> float:
    """Execute one query under one configuration; returns seconds."""
    strategy, partitions = config
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(partitions))
    try:
        sql = q.sql(params, hint=q.hint_clause(strategy))
        t0 = time.perf_counter()
        spark.sql(sql).collect()
        return time.perf_counter() - t0
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


def _features(config: tuple[str, int], params_seed: int) -> list[float]:
    strategy, partitions = config
    return [
        1.0 if strategy == "shuffle_hash" else 0.0,
        float(partitions),
        float(np.log2(partitions)),
        1.0 / partitions,
        float(params_seed % 7),  # parameter-instance indicator
    ]


@dataclass
class QueryPlanResult:
    query: str
    chosen_strategy: str
    chosen_partitions: int
    default_latency_s: float
    learned_latency_s: float

    @property
    def plan_changed(self) -> bool:
        return (self.chosen_strategy, self.chosen_partitions) != DEFAULT_CONFIG

    @property
    def latency_change_pct(self) -> float:
        return 100.0 * (self.default_latency_s - self.learned_latency_s) / self.default_latency_s


def plan_and_measure(spark: SparkSession) -> list[QueryPlanResult]:
    """Figure 20 pipeline over every query (tables must already be
    registered as temp views via :func:`repro.tpch.schema.load_tables`)."""
    results = []
    for name, q in QUERIES.items():
        X, y = [], []
        for seed in TRAIN_SEEDS:
            params = q.params(seed)
            for config in CANDIDATE_CONFIGS:
                lat = run_query(spark, q, params, config)
                X.append(_features(config, seed))
                y.append(lat)
        model = ElasticNet(alpha=0.05).fit(np.array(X), np.array(y))
        test_params = q.params(TEST_SEED)
        cand_X = np.array([_features(c, TEST_SEED) for c in CANDIDATE_CONFIGS])
        pred = model.predict(cand_X)
        chosen = CANDIDATE_CONFIGS[int(np.argmin(pred))]
        lat_default = np.median(
            [run_query(spark, q, test_params, DEFAULT_CONFIG) for _ in range(REPEATS)]
        )
        lat_learned = np.median(
            [run_query(spark, q, test_params, chosen) for _ in range(REPEATS)]
        )
        results.append(
            QueryPlanResult(
                query=name,
                chosen_strategy=chosen[0],
                chosen_partitions=chosen[1],
                default_latency_s=float(lat_default),
                learned_latency_s=float(lat_learned),
            )
        )
    return results


def results_table(results: list[QueryPlanResult]) -> pd.DataFrame:
    return pd.DataFrame(
        [
            {
                "query": r.query,
                "chosen_strategy": r.chosen_strategy,
                "chosen_partitions": r.chosen_partitions,
                "plan_changed": r.plan_changed,
                "default_latency_s": round(r.default_latency_s, 3),
                "learned_latency_s": round(r.learned_latency_s, 3),
                "latency_change_pct": round(r.latency_change_pct, 1),
            }
            for r in results
        ]
    )
