"""Table 5 — performance of learned models w.r.t. actual runtimes.

Paper (cluster-scale production workload):

| Model             | Correlation | Median Error | Coverage |
|-------------------|-------------|--------------|----------|
| Default           | 0.04        | 258%         | 100%     |
| Op-Subgraph       | 0.92        | 14%          | 54%      |
| Op-SubgraphApprox | 0.89        | 16%          | 76%      |
| Op-Input          | 0.85        | 18%          | 83%      |
| Operator          | 0.77        | 42%          | 100%     |
| Combined          | 0.84        | 19%          | 100%     |

We evaluate the same six rows on the synthetic cluster1: individual
models trained on day 1, combined on day-2 predictions, tested on day 3.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import model_rows, trained_cluster

PAPER = {
    "Default": (0.04, 258, 100),
    "Op-Subgraph": (0.92, 14, 54),
    "Op-SubgraphApprox": (0.89, 16, 76),
    "Op-Input": (0.85, 18, 83),
    "Operator": (0.77, 42, 100),
    "Combined": (0.84, 19, 100),
}


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    rows = model_rows(tc.scored_test)
    for r in rows:
        corr, med, cov = PAPER[r["model"]]
        r["paper_correlation"] = corr
        r["paper_median_error_pct"] = med
        r["paper_coverage_pct"] = cov
    return pd.DataFrame(rows)
