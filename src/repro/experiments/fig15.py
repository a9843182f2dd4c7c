"""Figure 15 / §6.4 (numeric) — impact of cardinality: CLEO vs a
learned cardinality estimator feeding the default cost model.

Paper numbers (one virtual cluster of cluster4, ~900 jobs):

- Default cost model: 236% median error, 0.04 correlation
- Default + CardLearner: 211% median error, 0.01 correlation
- CLEO: 18% median error, 0.84 correlation
- CLEO + CardLearner: 13% median error, 0.86 correlation

i.e. fixing cardinalities barely helps the hand-crafted model, while
CLEO with the *same* (bad) cardinalities is an order of magnitude
better, and better cardinalities give CLEO only a modest further boost.

Our CardLearner analogue is the upper bound any learned cardinality
estimator could reach: the simulator's *true* cardinalities. "Default +
CardLearner" is the default cost model over true cardinalities (already
logged as ``cost_default_truecard``); "CLEO + CardLearner" retrains the
model bank with the I/B/C features replaced by the true values.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.combined import CombinedModel
from repro.core.models import train_bank
from repro.experiments.common import get_logs
from repro.metrics import summarize

PAPER = {
    "Default": (0.04, 236),
    "Default + CardLearner": (0.01, 211),
    "CLEO": (0.84, 18),
    "CLEO + CardLearner": (0.86, 13),
}


def _with_true_cards(ops: pd.DataFrame) -> pd.DataFrame:
    out = ops.copy()
    out[["I", "B", "C"]] = out[["true_I", "true_B", "true_C"]].to_numpy()
    return out


def run() -> pd.DataFrame:
    ops, _ = get_logs("cluster4")
    train, comb_src, test = (ops[ops.day == d] for d in (1, 2, 3))
    test = test.reset_index(drop=True)
    a = test["actual"].to_numpy()

    def build(transform):
        tr, cs, te = (transform(x) for x in (train, comb_src, test))
        bank = train_bank(tr)
        comb = CombinedModel().fit(bank, cs)
        return comb.predict(bank, te.reset_index(drop=True))

    pred_cleo = build(lambda x: x)
    pred_cleo_card = build(_with_true_cards)
    rows = []
    for name, pred in (
        ("Default", test["cost_default"].to_numpy()),
        ("Default + CardLearner", test["cost_default_truecard"].to_numpy()),
        ("CLEO", pred_cleo),
        ("CLEO + CardLearner", pred_cleo_card),
    ):
        m = ~np.isnan(pred)
        s = summarize(pred[m], a[m])
        corr, med = PAPER[name]
        rows.append(
            {
                "model": name,
                "correlation": round(s["correlation"], 2),
                "median_error_pct": round(s["median_error_pct"], 1),
                "paper_correlation": corr,
                "paper_median_error_pct": med,
            }
        )
    return pd.DataFrame(rows)
