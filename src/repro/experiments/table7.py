"""Table 7 — accuracy/coverage breakdown on cluster1, all jobs vs
ad-hoc jobs only.

Paper (Cluster1): e.g. Default 0.12/182%/12512%/100% on all jobs and
0.09/204%/17791%/100% on ad-hoc; Op-Subgraph 0.86/9%/56%/65% all,
0.81/14%/57%/36% ad-hoc; Combined 0.79/21%/112%/100% all and
0.73/29%/134%/100% ad-hoc. Ad-hoc jobs keep most of the accuracy
because they still share low-level subexpressions with recurring jobs
and because the operator/combined models are per-operator (§6.2).
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import model_rows, trained_cluster

PAPER_ALL = {
    "Default": (0.12, 182, 12512, 100),
    "Op-Subgraph": (0.86, 9, 56, 65),
    "Op-SubgraphApprox": (0.85, 12, 71, 82),
    "Op-Input": (0.81, 23, 90, 91),
    "Operator": (0.76, 33, 138, 100),
    "Combined": (0.79, 21, 112, 100),
}
PAPER_ADHOC = {
    "Default": (0.09, 204, 17791, 100),
    "Op-Subgraph": (0.81, 14, 57, 36),
    "Op-SubgraphApprox": (0.80, 16, 79, 64),
    "Op-Input": (0.77, 26, 103, 79),
    "Operator": (0.73, 42, 186, 100),
    "Combined": (0.73, 29, 134, 100),
}


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    out = []
    for subset, scored, paper in (
        ("all", tc.scored_test, PAPER_ALL),
        ("ad-hoc", tc.scored_test[tc.scored_test.adhoc], PAPER_ADHOC),
    ):
        for r in model_rows(scored, include_p95=True):
            corr, med, p95, cov = paper[r["model"]]
            r.update(
                jobs=subset,
                paper_correlation=corr,
                paper_median_error_pct=med,
                paper_p95_error_pct=p95,
                paper_coverage_pct=cov,
            )
            out.append(r)
    cols = ["jobs", "model", "correlation", "median_error_pct", "p95_error_pct",
            "coverage_pct", "paper_correlation", "paper_median_error_pct",
            "paper_p95_error_pct", "paper_coverage_pct"]
    return pd.DataFrame(out)[cols]
