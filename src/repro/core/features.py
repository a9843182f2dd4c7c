"""Feature definitions of Tables 2 and 3, plus the two context features
(CL, D) the operator-input model adds (§4.2).

Basic features (Table 2): input cardinality I, base cardinality B,
output cardinality C, average row length L, partition count P,
normalized input IN, parameters PM. Derived features (Table 3) combine
them: sqrt/log transforms, input×output products, and per-partition
variants — the same 27-feature candidate set the paper feeds every
model, letting elastic net's L1 term do automatic feature selection.

Two synchronized implementations are provided:

- :func:`feature_matrix` — pandas (or a mapping of numpy arrays) →
  numpy, used inside training/predict UDFs, by driver-side learners and
  by the planner's cost curves;
- :func:`with_spark_features` — the same formulas as Catalyst column
  expressions, for Spark-side analysis (and oracle-tested against
  DuckDB in ``tests/test_features.py``).

The per-partition features are also what the resource-aware planning
of §5.2-§5.3 consumes: every feature of the form ``g(I,C,L)/P``
contributes its learned weight to θ_P, the raw ``P`` feature contributes
θ_C, and every other feature is free of P (see
:func:`repro.optimizer.resource.cost_curves`).
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

# Each entry: (name, lambda over the input columns, Spark SQL expression
# string, whether the feature has the form g(I,C,L)/P).
_LOG = np.log1p


def _defs():
    return [
        # --- basic (Table 2) ------------------------------------------
        ("f_I", lambda d: d["I"], "I", False),
        ("f_B", lambda d: d["B"], "B", False),
        ("f_C", lambda d: d["C"], "C", False),
        ("f_L", lambda d: d["L"], "L", False),
        ("f_P", lambda d: d["P"], "P", False),
        ("f_IN", lambda d: d["in_hash"], "in_hash", False),
        ("f_PM", lambda d: d["pm"], "pm", False),
        # --- input or output data (Table 3) ---------------------------
        ("f_sqrtI", lambda d: np.sqrt(d["I"]), "sqrt(I)", False),
        ("f_sqrtB", lambda d: np.sqrt(d["B"]), "sqrt(B)", False),
        ("f_LI", lambda d: d["L"] * d["I"], "L * I", False),
        ("f_LB", lambda d: d["L"] * d["B"], "L * B", False),
        ("f_LlogB", lambda d: d["L"] * _LOG(d["B"]), "L * ln(1 + B)", False),
        ("f_LlogI", lambda d: d["L"] * _LOG(d["I"]), "L * ln(1 + I)", False),
        ("f_LlogC", lambda d: d["L"] * _LOG(d["C"]), "L * ln(1 + C)", False),
        # --- input x output (Table 3) ---------------------------------
        ("f_BC", lambda d: d["B"] * d["C"], "B * C", False),
        ("f_IC", lambda d: d["I"] * d["C"], "I * C", False),
        ("f_BlogC", lambda d: d["B"] * _LOG(d["C"]), "B * ln(1 + C)", False),
        ("f_IlogC", lambda d: d["I"] * _LOG(d["C"]), "I * ln(1 + C)", False),
        ("f_logIlogC", lambda d: _LOG(d["I"]) * _LOG(d["C"]),
         "ln(1 + I) * ln(1 + C)", False),
        ("f_logBlogC", lambda d: _LOG(d["B"]) * _LOG(d["C"]),
         "ln(1 + B) * ln(1 + C)", False),
        # --- per-partition (Table 3) ----------------------------------
        ("f_I_P", lambda d: d["I"] / d["P"], "I / P", True),
        ("f_C_P", lambda d: d["C"] / d["P"], "C / P", True),
        ("f_IL_P", lambda d: d["I"] * d["L"] / d["P"], "I * L / P", True),
        ("f_CL_P", lambda d: d["C"] * d["L"] / d["P"], "C * L / P", True),
        ("f_sqrtI_P", lambda d: np.sqrt(d["I"]) / d["P"], "sqrt(I) / P", True),
        ("f_sqrtC_P", lambda d: np.sqrt(d["C"]) / d["P"], "sqrt(C) / P", True),
        ("f_logI_P", lambda d: _LOG(d["I"]) / d["P"], "ln(1 + I) / P", True),
    ]


_DEFS = _defs()
FEATURE_NAMES: list[str] = [n for n, _, _, _ in _DEFS]
CONTEXT_NAMES: list[str] = ["f_CL", "f_D"]  # operator-input extras (§4.2)
ALL_FEATURE_NAMES: list[str] = FEATURE_NAMES + CONTEXT_NAMES

# Index maps for the partition-cost curves (§5.2-§5.3).
P_FEATURE_INDEX = FEATURE_NAMES.index("f_P")
P_INVERSE_INDEX: list[int] = [i for i, (_, _, _, over_p) in enumerate(_DEFS) if over_p]


def feature_matrix(pdf: pd.DataFrame | Mapping[str, np.ndarray],
                   context: bool = False) -> np.ndarray:
    """Numpy feature matrix from a log DataFrame, or a mapping of
    equal-length arrays, with columns I, B, C, L, P, in_hash, pm (+ cl,
    depth when ``context``)."""
    cols = [np.asarray(fn(pdf), dtype=float) for _, fn, _, _ in _DEFS]
    if context:
        cols.append(np.asarray(pdf["cl"], dtype=float))
        cols.append(np.asarray(pdf["depth"], dtype=float))
    return np.column_stack(cols)


def with_spark_features(df: DataFrame, context: bool = False) -> DataFrame:
    """Append the Table 2/3 feature columns via Catalyst expressions."""
    for name, _, sql, _ in _DEFS:
        df = df.withColumn(name, F.expr(sql).cast("double"))
    if context:
        df = df.withColumn("f_CL", F.col("cl").cast("double"))
        df = df.withColumn("f_D", F.col("depth").cast("double"))
    return df


def feature_names(context: bool = False) -> list[str]:
    return ALL_FEATURE_NAMES if context else list(FEATURE_NAMES)

