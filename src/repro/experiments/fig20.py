"""Figure 20 (numeric) — TPC-H with and without learned-cost-model
feedback, on real Spark.

Paper findings to reproduce in shape: feeding the learned models back
changes a subset of the 22 query plans (6 in the paper: more optimal
partitioning, skipped exchanges, better join implementations, one
local-aggregation regression); most changed plans improve latency, with
occasional regressions (Q17 in the paper).

Here eleven TPC-H-lite queries run at a sandbox scale factor; the
learned model chooses join implementation (sort-merge vs shuffle-hash
hint) and the Exchange partition count
(``spark.sql.shuffle.partitions``). At this scale Spark's fixed
64-partition shuffle default is uniformly over-partitioned, so nearly
every plan changes — consistent with the §6.7 over-partitioning
finding, if more sweeping than the paper's 6-of-22.
"""
from __future__ import annotations

import pandas as pd

from repro.tpch.planner import plan_and_measure, results_table
from repro.tpch.schema import load_tables

# Paper Figure 20 deltas (percent latency change, positive = faster)
# for the six changed queries; unchanged queries ~0.
PAPER_CHANGED = {"q8": 28, "q9": 22, "q11": 8, "q16": 12, "q17": -10, "q20": 12}
SF = 0.05  # the TPC-H scale factor the figure runs at (about 50 MB)


def run(spark, sf: float) -> pd.DataFrame:
    load_tables(spark, sf=sf)
    results = plan_and_measure(spark)
    out = results_table(results)
    out["paper_change_pct"] = out["query"].map(lambda q: PAPER_CHANGED.get(q, 0))
    return out
