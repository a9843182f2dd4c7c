"""Table 6 — correlation and error of five meta-learners for the
combined model:

| Model               | Correlation | Median Error |
|---------------------|-------------|--------------|
| Default             | 0.04        | 258%         |
| Neural Network      | 0.79        | 31%          |
| Decision Tree       | 0.73        | 41%          |
| FastTree Regression | 0.84        | 19%          |
| Random Forest       | 0.80        | 28%          |
| Elastic net         | 0.68        | 64%          |

The paper's takeaway: here the ranking *flips* relative to Table 4 —
the meta problem (characterizing where each individual model wins) is
non-linear with plentiful training data, so the boosted trees win and
the linear model is worst.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.combined import CombinedModel
from repro.core.learners import LEARNER_FACTORIES
from repro.experiments.common import COMBINED_DAYS, trained_cluster
from repro.metrics import summarize

PAPER = {
    "Default": (0.04, 258),
    "Neural Network": (0.79, 31),
    "Decision Tree": (0.73, 41),
    "FastTree Regression": (0.84, 19),
    "Random Forest": (0.80, 28),
    "Elastic net": (0.68, 64),
}


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    comb_src = tc.ops[tc.ops.day.isin(COMBINED_DAYS)]
    test = tc.test.reset_index(drop=True)
    a = test["actual"].to_numpy()
    d = summarize(test["cost_default"].to_numpy(), a)
    rows = [{
        "model": "Default",
        "correlation": round(d["correlation"], 2),
        "median_error_pct": round(d["median_error_pct"], 1),
    }]
    for name, factory in LEARNER_FACTORIES.items():
        comb = CombinedModel(learner_factory=factory).fit(tc.bank, comb_src)
        v = comb.predict(tc.bank, test)
        m = ~np.isnan(v)
        s = summarize(v[m], a[m])
        rows.append({
            "model": name,
            "correlation": round(s["correlation"], 2),
            "median_error_pct": round(s["median_error_pct"], 1),
        })
    out = pd.DataFrame(rows)
    out["paper_correlation"] = out["model"].map(lambda m: PAPER[m][0])
    out["paper_median_error_pct"] = out["model"].map(lambda m: PAPER[m][1])
    return out
