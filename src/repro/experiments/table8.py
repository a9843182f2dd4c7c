"""Table 8 — default vs combined learned model per cluster, for all
jobs and ad-hoc jobs separately.

Paper:

| Cluster  | Default corr/med | Learned all corr/med | Learned ad-hoc corr/med |
|----------|------------------|----------------------|-------------------------|
| Cluster1 | 0.12 / 182%      | 0.79 / 21%           | 0.73 / 29%              |
| Cluster2 | 0.08 / 256%      | 0.77 / 33%           | 0.75 / 40%              |
| Cluster3 | 0.15 / 165%      | 0.83 / 26%           | 0.81 / 38%              |
| Cluster4 | 0.05 / 153%      | 0.74 / 15%           | 0.72 / 26%              |
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.experiments.common import trained_cluster
from repro.metrics import summarize

PAPER = {
    "cluster1": (0.12, 182, 0.79, 21, 0.73, 29),
    "cluster2": (0.08, 256, 0.77, 33, 0.75, 40),
    "cluster3": (0.15, 165, 0.83, 26, 0.81, 38),
    "cluster4": (0.05, 153, 0.74, 15, 0.72, 26),
}


def run() -> pd.DataFrame:
    rows = []
    for name in PAPER:
        tc = trained_cluster(name)
        sc = tc.scored_test
        a = sc["actual"].to_numpy()
        adhoc = sc["adhoc"].to_numpy()
        d = summarize(sc["cost_default"].to_numpy(), a)
        la = summarize(sc["pred_combined"].to_numpy(), a)
        v = sc["pred_combined"].to_numpy()[adhoc]
        lh = summarize(v[~np.isnan(v)], a[adhoc][~np.isnan(v)])
        p = PAPER[name]
        rows.append(
            {
                "cluster": name,
                "default_corr": round(d["correlation"], 2),
                "default_median_pct": round(d["median_error_pct"], 1),
                "learned_all_corr": round(la["correlation"], 2),
                "learned_all_median_pct": round(la["median_error_pct"], 1),
                "learned_adhoc_corr": round(lh["correlation"], 2),
                "learned_adhoc_median_pct": round(lh["median_error_pct"], 1),
                "paper_default": f"{p[0]}/{p[1]}%",
                "paper_all": f"{p[2]}/{p[3]}%",
                "paper_adhoc": f"{p[4]}/{p[5]}%",
            }
        )
    return pd.DataFrame(rows)
