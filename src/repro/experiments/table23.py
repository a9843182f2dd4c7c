"""Tables 2 + 3 — the selected feature set (and the Figure 5 influence).

The paper arrives at Tables 2/3 by fitting elastic nets with a large
candidate feature set and keeping every feature with "at least one
non-zero weight over all subgraph models"; Figure 5 shows each
feature's aggregate influence ``nw_i = Σ_N |w_in| / Σ_K Σ_N |w_kn|``
(§3.3), computed on the standardized-space weights so features of very
different magnitudes are comparable.

This harness reproduces that analysis over all trained individual
models (all four families — within one exact-subgraph group some
features such as L or IN are constants and can never be selected, but
the broader families see them vary): per candidate feature, the number
of models with a non-zero weight and the normalized influence.

Reproduction criterion: every Table 2/3 feature is selected by some
model, and cardinality / per-partition features carry the bulk of the
influence.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.features import FEATURE_NAMES
from repro.experiments.common import trained_cluster

N_FEATS = len(FEATURE_NAMES)


def run() -> pd.DataFrame:
    tc = trained_cluster("cluster1")
    W = np.abs(tc.bank.std_coef[:, :N_FEATS])
    total = W.sum()
    rows = []
    for j, name in enumerate(FEATURE_NAMES):
        nz = int((W[:, j] > 0).sum())
        rows.append(
            {
                "feature": name,
                "models_with_nonzero_weight": nz,
                "pct_models": round(100.0 * nz / len(W), 1),
                "normalized_influence": round(float(W[:, j].sum() / total), 4),
            }
        )
    return pd.DataFrame(rows).sort_values(
        "normalized_influence", ascending=False, ignore_index=True
    )
