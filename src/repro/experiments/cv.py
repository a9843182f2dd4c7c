"""Per-subgraph k-fold cross-validation, on the driver.

Shared by the Table 1 (loss functions) and Table 4 (ML algorithms)
experiments: for each sampled operator-subgraph group, the full
learner × fold grid runs in turn and the held-out predictions of every
group are pooled per model.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.features import feature_matrix
from repro.core.learners import LEARNER_FACTORIES
from repro.core.learners.linear import GDLinear
from repro.metrics import summarize

LOSS_FITTERS = {
    "Median Absolute Error": lambda: GDLinear(loss="medae"),
    "Mean Absolute Error": lambda: GDLinear(loss="mae"),
    "Mean Squared Error": lambda: GDLinear(loss="mse"),
    "Mean Squared-Log Error": lambda: GDLinear(loss="msle"),
}
REGISTRIES = {"losses": LOSS_FITTERS, "learners": LEARNER_FACTORIES}

_COLS = ["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual", "sig_sub"]


def _cv_group(pdf: pd.DataFrame, registry_name: str, folds: int) -> pd.DataFrame:
    registry = REGISTRIES[registry_name]
    X = feature_matrix(pdf)
    y = pdf["actual"].to_numpy(dtype=float)
    n = len(y)
    idx = np.arange(n) % folds  # deterministic fold assignment
    out_model, out_pred, out_actual = [], [], []
    for name, factory in registry.items():
        for f in range(folds):
            tr, te = idx != f, idx == f
            if tr.sum() < 3 or te.sum() == 0:
                continue
            model = factory().fit(X[tr], y[tr])
            p = np.asarray(model.predict(X[te]), dtype=float)
            out_model.extend([name] * int(te.sum()))
            out_pred.extend(map(float, p))
            out_actual.extend(map(float, y[te]))
    return pd.DataFrame({"model": out_model, "pred": out_pred, "actual": out_actual})


def select_groups(ops: pd.DataFrame, max_groups: int, min_rows: int) -> pd.DataFrame:
    """Deterministic sample of subgraph groups big enough for CV."""
    counts = ops.groupby("sig_sub").size()
    eligible = counts[counts >= min_rows].index.to_numpy()
    eligible = np.sort(eligible)[:max_groups]  # hash order = arbitrary but stable
    return ops[ops.sig_sub.isin(set(eligible))]


def subgraph_cv(
    ops: pd.DataFrame,
    registry_name: str,
    max_groups: int = 150,
    min_rows: int = 10,
    folds: int = 3,
) -> pd.DataFrame:
    """Pooled held-out predictions per model over sampled subgraphs."""
    data = select_groups(ops, max_groups, min_rows)[_COLS]
    parts = [_cv_group(grp, registry_name, folds) for _, grp in data.groupby("sig_sub")]
    return pd.concat(parts, ignore_index=True)


def cv_table(preds: pd.DataFrame) -> pd.DataFrame:
    """Per-model correlation + median error from pooled predictions."""
    rows = []
    for name, grp in preds.groupby("model", sort=False):
        s = summarize(grp["pred"].to_numpy(), grp["actual"].to_numpy())
        rows.append(
            {
                "model": name,
                "correlation": round(s["correlation"], 2),
                "median_error_pct": round(s["median_error_pct"], 1),
                "n_holdout": s["n"],
            }
        )
    return pd.DataFrame(rows)
