"""The one SparkSession configuration, shared by ``jobs/run.py`` and the
test suite's ``spark`` fixture.

Master and driver memory are launch options (``PYSPARK_SUBMIT_ARGS``
or ``spark-submit``); the options set here are honoured after launch.
Broadcast joins are disabled so TPC-H-lite exercises the shuffle paths
whose join implementation and partition count Fig 20 chooses.
"""
from __future__ import annotations

SHUFFLE_PARTITIONS = 64  # the count of Fig 20's default plan (``tpch.planner.DEFAULT_CONFIG``)


def get_spark(app: str):
    """Get or create the session named ``app``, with the options above."""
    # Imported here so that experiments which never start Spark never load it.
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
