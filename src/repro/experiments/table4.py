"""Table 4 — correlation and median error of five ML algorithms for the
operator-subgraph models on cluster1 (5-fold CV in the paper, 3-fold
here: :data:`repro.experiments.cv.FOLDS`):

| Model                | Correlation | Median Error |
|----------------------|-------------|--------------|
| Default              | 0.04        | 258%         |
| Neural Network       | 0.89        | 27%          |
| Decision Tree        | 0.91        | 19%          |
| Fast-Tree regression | 0.90        | 20%          |
| Random Forest        | 0.89        | 32%          |
| Elastic net          | 0.92        | 14%          |

The paper's takeaway: on small per-subgraph training sets the simple,
regularized elastic net beats the complex models, which overfit noise.
"""
from __future__ import annotations

import pandas as pd

from repro.core.learners import LEARNER_FACTORIES
from repro.experiments.common import trained_cluster
from repro.experiments.cv import cv_table, select_groups, subgraph_cv
from repro.metrics import summarize

PAPER = {
    "Default": (0.04, 258),
    "Neural Network": (0.89, 27),
    "Decision Tree": (0.91, 19),
    "FastTree Regression": (0.90, 20),
    "Random Forest": (0.89, 32),
    "Elastic net": (0.92, 14),
}


MAX_GROUPS = 120  # subgraph groups cross-validated


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    preds = subgraph_cv(tc.train, LEARNER_FACTORIES, MAX_GROUPS)
    out = cv_table(preds)
    # Default cost model row, evaluated over the same sampled groups.
    sample = select_groups(tc.train, MAX_GROUPS)
    d = summarize(sample["cost_default"].to_numpy(), sample["actual"].to_numpy())
    default_row = pd.DataFrame(
        [{
            "model": "Default",
            "correlation": round(d["correlation"], 2),
            "median_error_pct": round(d["median_error_pct"], 1),
            "n_holdout": d["n"],
        }]
    )
    out = pd.concat([default_row, out], ignore_index=True)
    out["paper_correlation"] = out["model"].map(lambda m: PAPER[m][0])
    out["paper_median_error_pct"] = out["model"].map(lambda m: PAPER[m][1])
    return out
