"""Shared plumbing for the per-table job entrypoints: a SparkSession for
the jobs that run Spark, and printing a result table."""
from __future__ import annotations

import os
import sys

# Allow running as `python jobs/<name>.py` as well as spark-submit.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(title: str, df) -> None:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
