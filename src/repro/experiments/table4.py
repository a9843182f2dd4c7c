"""Table 4 — correlation and median error of five ML algorithms for the
operator-subgraph models (5-fold CV in the paper):

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

from repro.experiments.common import trained_cluster
from repro.experiments.cv import cv_table, subgraph_cv
from repro.metrics import summarize

PAPER = {
    "Default": (0.04, 258),
    "Neural Network": (0.89, 27),
    "Decision Tree": (0.91, 19),
    "FastTree Regression": (0.90, 20),
    "Random Forest": (0.89, 32),
    "Elastic net": (0.92, 14),
}


def run(cluster: str = "cluster1", max_groups: int = 120) -> pd.DataFrame:
    tc = trained_cluster(cluster)
    preds = subgraph_cv(tc.train, "learners", max_groups=max_groups)
    out = cv_table(preds)
    # Default cost model row, evaluated over the same sampled groups.
    from repro.experiments.cv import select_groups

    sample = select_groups(tc.train, max_groups, 10)
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
