"""Figure 9 (tabular) — workload composition per cluster per day.

Paper columns: Total Jobs, Recurring Jobs, Recurring Templates, Total
Sub-Expr., Common Sub-Expr., Recurring Sub-Expr., Ad-hoc Sub-Expr.
(e.g. Cluster1/Day1: 64796 / 52400 / 17662 / 3546087 / 2874485 /
484909 / 186693 — our clusters are ~100x smaller, see DESIGN.md).

Definitions used here (computed with Spark SQL aggregations over the
operator log):

- *total sub-expr*: operator instances that day;
- *common sub-expr*: instances whose subgraph signature occurs in more
  than one job that day (shared subexpressions, Fig 4);
- *recurring sub-expr*: instances of recurring jobs whose signature
  also occurs on some other day;
- *ad-hoc sub-expr*: instances belonging to ad-hoc jobs.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import functions as F

from repro.experiments.common import get_logs

CLUSTERS = ("cluster1", "cluster2", "cluster3", "cluster4")


def run(spark) -> pd.DataFrame:
    ops_all = pd.concat([get_logs(c)[0] for c in CLUSTERS], ignore_index=True)
    jobs_all = pd.concat([get_logs(c)[1] for c in CLUSTERS], ignore_index=True)
    ops = spark.createDataFrame(
        ops_all[["cluster", "day", "job_id", "template_id", "adhoc", "sig_sub"]]
    )
    jobs = spark.createDataFrame(
        jobs_all[["cluster", "day", "job_id", "template_id", "adhoc"]]
    )
    job_stats = jobs.groupBy("cluster", "day").agg(
        F.count("*").alias("total_jobs"),
        F.sum(F.when(~F.col("adhoc"), 1).otherwise(0)).alias("recurring_jobs"),
        F.countDistinct(F.when(~F.col("adhoc"), F.col("template_id"))).alias(
            "recurring_templates"
        ),
    )
    # Common = signature seen in >1 job within (cluster, day).
    sig_day = ops.groupBy("cluster", "day", "sig_sub").agg(
        F.countDistinct("job_id").alias("n_jobs_with_sig")
    )
    with_common = ops.join(sig_day, ["cluster", "day", "sig_sub"])
    # Recurring = non-adhoc instance whose signature appears on >1 day.
    sig_days = ops.groupBy("cluster", "sig_sub").agg(
        F.countDistinct("day").alias("n_days_with_sig")
    )
    enriched = with_common.join(sig_days, ["cluster", "sig_sub"])
    subexpr = enriched.groupBy("cluster", "day").agg(
        F.count("*").alias("total_subexpr"),
        F.sum(F.when(F.col("n_jobs_with_sig") > 1, 1).otherwise(0)).alias(
            "common_subexpr"
        ),
        F.sum(
            F.when((~F.col("adhoc")) & (F.col("n_days_with_sig") > 1), 1).otherwise(0)
        ).alias("recurring_subexpr"),
        F.sum(F.when(F.col("adhoc"), 1).otherwise(0)).alias("adhoc_subexpr"),
    )
    out = (
        job_stats.join(subexpr, ["cluster", "day"])
        .orderBy("cluster", "day")
        .toPandas()
    )
    return out
