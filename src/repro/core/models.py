"""The four individual model families of §3-§4 and their training.

Families, from most specialized to most general (Table 5):

- **Op-Subgraph** — one elastic net per exact operator-subgraph
  signature (root physical op + full subgraph + inputs);
- **Op-SubgraphApprox** — per (root op, inputs, logical-op frequency
  multiset) signature: same inputs, approximately same subgraph;
- **Op-Input** — per (root op, inputs), with the CL/D context features;
- **Operator** — one model per physical operator (100% coverage).

A family's models are trained *in parallel with Spark*: the operator
log is grouped by the family's signature column and each group is fit
by one `applyInPandas` task — the analogue of the paper's SCOPE-based
parallel model trainer (§5.1). A model is materialized only for keys
with ≥ ``MIN_OCCURRENCES`` training rows (§4.1), except the Operator
family which always fits (it is the coverage backstop).

The trained bank stores raw-feature weights, so prediction is a dot
product and the analytical partition exploration (§5.3) can read
per-partition weights directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.features import feature_matrix, feature_names
from repro.core.learners.linear import ElasticNet

MIN_OCCURRENCES = 5


@dataclass(frozen=True)
class FamilySpec:
    name: str
    key_col: str  # signature column in the operator log
    context: bool  # include CL/D features (§4.2 Op-Input extras)
    min_occurrences: int


FAMILIES: list[FamilySpec] = [
    FamilySpec("Op-Subgraph", "sig_sub", False, MIN_OCCURRENCES),
    FamilySpec("Op-SubgraphApprox", "sig_approx", False, MIN_OCCURRENCES),
    FamilySpec("Op-Input", "sig_opinput", True, MIN_OCCURRENCES),
    FamilySpec("Operator", "op", True, 1),
]
FAMILY_BY_NAME = {f.name: f for f in FAMILIES}


@dataclass
class LinearModel:
    raw_coef: np.ndarray
    raw_intercept: float
    n_train: int
    z_lo: float = -30.0  # log-space clip bounds: training target range
    z_hi: float = 30.0   # plus headroom (extrapolation guard)
    std_coef: np.ndarray | None = None  # standardized-space weights (Fig 5)

    def predict_log(self, X: np.ndarray) -> np.ndarray:
        z = X @ self.raw_coef + self.raw_intercept
        return np.clip(z, self.z_lo, self.z_hi)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.expm1(np.clip(self.predict_log(X), -30.0, 30.0))


class ModelBank:
    """All trained individual models: ``family name -> key -> LinearModel``."""

    def __init__(self):
        self.models: dict[str, dict[object, LinearModel]] = {f.name: {} for f in FAMILIES}

    def n_models(self, family: str) -> int:
        return len(self.models[family])

    # -- prediction ----------------------------------------------------
    def predict_family(self, family: str, pdf: pd.DataFrame) -> np.ndarray:
        """Predict ``pdf`` rows with ``family``; NaN where not covered."""
        spec = FAMILY_BY_NAME[family]
        X = feature_matrix(pdf, context=spec.context)
        keys = pdf[spec.key_col].to_numpy()
        out = np.full(len(pdf), np.nan)
        bank = self.models[family]
        for key in pd.unique(keys):
            model = bank.get(key)
            if model is None:
                continue
            mask = keys == key
            out[mask] = model.predict(X[mask])
        return out

    def predict_all(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """``pdf`` plus one ``pred_<family>`` column per family."""
        out = pdf.copy()
        for spec in FAMILIES:
            out[f"pred_{spec.key_col}"] = self.predict_family(spec.name, pdf)
        return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("key", T.StringType()),
        T.StructField("coef", T.ArrayType(T.DoubleType())),
        T.StructField("intercept", T.DoubleType()),
        T.StructField("n_train", T.LongType()),
        T.StructField("z_lo", T.DoubleType()),
        T.StructField("z_hi", T.DoubleType()),
        T.StructField("std_coef", T.ArrayType(T.DoubleType())),
    ]
)


def _fit_group(pdf: pd.DataFrame, context: bool, min_occ: int, alpha: float):
    if len(pdf) < min_occ:
        return None
    X = feature_matrix(pdf, context=context)
    y = pdf["actual"].to_numpy(dtype=float)
    en = ElasticNet(alpha=alpha).fit(X, y)
    return LinearModel(en.raw_coef_, en.raw_intercept_, len(pdf), en.z_lo_, en.z_hi_,
                       en.coef_)


def train_family_spark(
    spark_ops: DataFrame, spec: FamilySpec, alpha: float = 1.0
) -> dict[object, LinearModel]:
    """Fit one elastic net per signature group, in parallel on Spark."""
    context, min_occ = spec.context, spec.min_occurrences
    cols = ["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual", spec.key_col]

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        m = _fit_group(pdf, context, min_occ, alpha)
        if m is None:
            return pd.DataFrame(
                columns=["key", "coef", "intercept", "n_train", "z_lo", "z_hi",
                         "std_coef"]
            )
        return pd.DataFrame(
            {
                "key": [str(pdf[spec.key_col].iloc[0])],
                "coef": [list(map(float, m.raw_coef))],
                "intercept": [float(m.raw_intercept)],
                "n_train": [m.n_train],
                "z_lo": [m.z_lo],
                "z_hi": [m.z_hi],
                "std_coef": [list(map(float, m.std_coef))],
            }
        )

    rows = (
        spark_ops.select(*cols)
        .repartition(spec.key_col)
        .groupBy(spec.key_col)
        .applyInPandas(fit, schema=_RESULT_SCHEMA)
        .collect()
    )
    key_dtype = None if spec.key_col == "op" else int
    out: dict[object, LinearModel] = {}
    for r in rows:
        key = r["key"] if key_dtype is None else key_dtype(r["key"])
        out[key] = LinearModel(
            np.array(r["coef"]), r["intercept"], r["n_train"], r["z_lo"], r["z_hi"],
            np.array(r["std_coef"]),
        )
    return out


def train_family_pandas(
    ops: pd.DataFrame, spec: FamilySpec, alpha: float = 1.0
) -> dict[object, LinearModel]:
    """Driver-side equivalent of :func:`train_family_spark` (tests/small)."""
    out: dict[object, LinearModel] = {}
    for key, grp in ops.groupby(spec.key_col):
        m = _fit_group(grp, spec.context, spec.min_occurrences, alpha)
        if m is not None:
            out[key] = m
    return out


def train_bank(
    ops: pd.DataFrame,
    spark: SparkSession | None = None,
    alpha: float = 1.0,
) -> ModelBank:
    """Train all four families over a training log.

    With a SparkSession, each family trains as one distributed
    `applyInPandas` job (§5.1: "we learn each of the four individual
    models independently and in parallel"); otherwise driver-side.
    """
    bank = ModelBank()
    if spark is not None:
        spark_ops = spark.createDataFrame(
            ops[["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual",
                 "sig_sub", "sig_approx", "sig_opinput", "op"]]
        )
        spark_ops = spark_ops.persist()
        try:
            for spec in FAMILIES:
                bank.models[spec.name] = train_family_spark(spark_ops, spec, alpha)
        finally:
            spark_ops.unpersist()
    else:
        for spec in FAMILIES:
            bank.models[spec.name] = train_family_pandas(ops, spec, alpha)
    return bank
