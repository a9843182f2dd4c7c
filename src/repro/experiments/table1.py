"""Table 1 — median error of the per-subgraph elastic-net-style linear
model under four regression loss functions (5-fold CV in the paper,
3-fold here: :data:`repro.experiments.cv.FOLDS`):

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
under each loss, on cluster1's day-1 log, on the driver
(:mod:`repro.experiments.cv`).
"""
from __future__ import annotations

import pandas as pd

from repro.core.learners.linear import GDLinear
from repro.experiments.common import trained_cluster
from repro.experiments.cv import cv_table, subgraph_cv

PAPER = {
    "Median Absolute Error": 246,
    "Mean Absolute Error": 62,
    "Mean Squared Error": 36,
    "Mean Squared-Log Error": 14,
}


MAX_GROUPS = 150  # subgraph groups cross-validated

LOSS_FITTERS = {
    "Median Absolute Error": lambda: GDLinear(loss="medae"),
    "Mean Absolute Error": lambda: GDLinear(loss="mae"),
    "Mean Squared Error": lambda: GDLinear(loss="mse"),
    "Mean Squared-Log Error": lambda: GDLinear(loss="msle"),
}


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    preds = subgraph_cv(tc.train, LOSS_FITTERS, MAX_GROUPS)
    out = cv_table(preds)[["model", "median_error_pct"]]
    out["paper_median_error_pct"] = out["model"].map(PAPER)
    return out
