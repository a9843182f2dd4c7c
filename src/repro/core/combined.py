"""The combined (meta-ensemble) model of §4.3.

One FastTree (gradient-boosted-tree) meta-model per physical operator
— "there is an operator model and a combined model for every physical
operator" (§5.1) — trained on the *predictions of the individual
models* as meta-features plus the extra features the paper lists:
cardinalities (I, B, C), cardinalities per partition (I/P, B/P, C/P)
and the partition count P. Coverage flags mark which specialized models
had a prediction for the instance; missing predictions are imputed with
the operator model's (always available), which lets the regression
trees "characterize the space where each model performs well".

The meta-learner is pluggable for the Table 6 comparison. A learner with
``fit_many`` (FastTree) fits every operator's model in one call, which
grows boosting round r of all of them as one forest.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.learners import FastTreeRegressor
from repro.core.models import ModelBank

META_PRED_COLS = ["pred_sig_sub", "pred_sig_approx", "pred_sig_opinput", "pred_op"]


def meta_features(pdf: pd.DataFrame) -> np.ndarray:
    """Meta-feature matrix from a frame carrying ``pred_*`` columns."""
    op_pred = pdf["pred_op"].to_numpy(dtype=float)
    cols = []
    for c in META_PRED_COLS:
        v = pdf[c].to_numpy(dtype=float)
        covered = ~np.isnan(v)
        cols.append(np.where(covered, v, op_pred))
        cols.append(covered.astype(float))
    i = pdf["I"].to_numpy(dtype=float)
    b = pdf["B"].to_numpy(dtype=float)
    c_ = pdf["C"].to_numpy(dtype=float)
    p = np.maximum(pdf["P"].to_numpy(dtype=float), 1.0)
    cols += [i, b, c_, i / p, b / p, c_ / p, p]
    return np.column_stack(cols)


class CombinedModel:
    """Per-physical-operator meta-ensemble over individual predictions."""

    def __init__(self, learner_factory=FastTreeRegressor):
        self.learner_factory = learner_factory
        self.models: dict[str, object] = {}

    def fit(self, bank: ModelBank, train_ops: pd.DataFrame) -> "CombinedModel":
        """Train on a held-out day: individual models predict it, and the
        meta-learner fits actual runtimes on those predictions (§5.1)."""
        scored = bank.predict_all(train_ops)
        groups = list(scored.groupby("op"))
        Xs = [meta_features(grp) for _, grp in groups]
        ys = [grp["actual"].to_numpy(dtype=float) for _, grp in groups]
        learner = self.learner_factory()
        if hasattr(learner, "fit_many"):
            fitted = learner.fit_many(Xs, ys)
        else:
            fitted = [self.learner_factory().fit(X, y) for X, y in zip(Xs, ys)]
        self.models.update(zip((str(op) for op, _ in groups), fitted))
        return self

    def predict(self, bank: ModelBank, pdf: pd.DataFrame) -> np.ndarray:
        """Predict any instance — 100% coverage by construction."""
        scored = bank.predict_all(pdf)
        out = np.full(len(pdf), np.nan)
        ops = scored["op"].to_numpy()
        for op in pd.unique(ops):
            mask = ops == op
            grp = scored.loc[mask]
            model = self.models.get(str(op))
            if model is None:
                # Operator unseen in combined training: fall back to the
                # individual-model cascade (most specialized first).
                fallback = np.full(mask.sum(), np.nan)
                for c in META_PRED_COLS:
                    v = grp[c].to_numpy(dtype=float)
                    fallback = np.where(np.isnan(fallback), v, fallback)
                out[mask] = fallback
                continue
            out[mask] = model.predict(meta_features(grp))
        return out
