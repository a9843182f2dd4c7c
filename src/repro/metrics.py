"""Accuracy metrics used throughout the paper's evaluation (§6).

The paper reports, for a set of (predicted cost, actual runtime) pairs:

- **median error**: median of ``|pred - actual| / actual`` as a percent
  (e.g. "14%" for the operator-subgraph model, "258%" for the default
  cost model in Table 4/5);
- **95%tile error**: the 95th percentile of the same ratio (Table 7);
- **Pearson correlation** between predicted and actual (raw scale);
- **coverage**: fraction of operator instances for which a model family
  has a trained model (Table 5/7).

All metrics are computed with numpy on the driver.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

_EPS = 1e-9


def relative_errors(pred: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """``|pred - actual| / actual`` per element (unitless, 1.0 == 100%)."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return np.abs(pred - actual) / np.maximum(actual, _EPS)


def median_error_pct(pred: np.ndarray, actual: np.ndarray) -> float:
    """Median relative error in percent, as reported in Tables 1, 4-8."""
    if len(np.asarray(pred)) == 0:
        return float("nan")
    return float(np.median(relative_errors(pred, actual)) * 100.0)


def p95_error_pct(pred: np.ndarray, actual: np.ndarray) -> float:
    """95th-percentile relative error in percent (Table 7)."""
    if len(np.asarray(pred)) == 0:
        return float("nan")
    return float(np.percentile(relative_errors(pred, actual), 95) * 100.0)


def pearson(pred: np.ndarray, actual: np.ndarray) -> float:
    """Pearson correlation on the raw (not log) scale, as in the paper."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if len(pred) < 2 or np.std(pred) < _EPS or np.std(actual) < _EPS:
        return float("nan")
    return float(np.corrcoef(pred, actual)[0, 1])


def summarize(pred: np.ndarray, actual: np.ndarray) -> dict:
    """One row of a paper table: correlation, median and 95%ile error."""
    return {
        "correlation": pearson(pred, actual),
        "median_error_pct": median_error_pct(pred, actual),
        "p95_error_pct": p95_error_pct(pred, actual),
        "n": int(len(np.asarray(pred))),
    }


def fmt_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render experiment rows as a GitHub-markdown table for EXPERIMENTS.md."""
    pdf = pd.DataFrame(rows)
    if columns:
        pdf = pdf[columns]

    def _fmt(v):
        if isinstance(v, float):
            if math.isnan(v):
                return "-"
            return f"{v:.2f}" if abs(v) < 10 else f"{v:.0f}"
        return str(v)

    header = "| " + " | ".join(pdf.columns) + " |"
    sep = "|" + "|".join(["---"] * len(pdf.columns)) + "|"
    body = "\n".join(
        "| " + " | ".join(_fmt(v) for v in rec) + " |" for rec in pdf.itertuples(index=False)
    )
    return "\n".join([header, sep, body])
