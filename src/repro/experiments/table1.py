"""Table 1 — median error of the per-subgraph elastic-net-style linear
model under four regression loss functions (5-fold CV in the paper):

| Loss Function          | Median Error |
|------------------------|--------------|
| Median Absolute Error  | 246%         |
| Mean Absolute Error    | 62%          |
| Mean Squared Error     | 36%          |
| Mean Squared-Log Error | 14%          |

The paper's takeaway: with heavy-tailed runtimes the raw-scale losses
chase the big jobs (and MedAE barely fits at all), while the
log-transformed squared loss minimizes *relative* error. We run k-fold
CV per operator-subgraph with :class:`repro.core.learners.linear.GDLinear`
under each loss, on the driver (:mod:`repro.experiments.cv`).
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import trained_cluster
from repro.experiments.cv import cv_table, subgraph_cv

PAPER = {
    "Median Absolute Error": 246,
    "Mean Absolute Error": 62,
    "Mean Squared Error": 36,
    "Mean Squared-Log Error": 14,
}


def run(cluster: str = "cluster1", max_groups: int = 150) -> pd.DataFrame:
    tc = trained_cluster(cluster)
    preds = subgraph_cv(tc.train, "losses", max_groups=max_groups)
    out = cv_table(preds)[["model", "median_error_pct"]]
    out["paper_median_error_pct"] = out["model"].map(PAPER)
    return out
