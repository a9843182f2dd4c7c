"""The four individual model families of §3-§4 and their training.

Families, from most specialized to most general (Table 5):

- **Op-Subgraph** — one elastic net per exact operator-subgraph
  signature (root physical op + full subgraph + inputs);
- **Op-SubgraphApprox** — per (root op, inputs, logical-op frequency
  multiset) signature: same inputs, approximately same subgraph;
- **Op-Input** — per (root op, inputs), with the CL/D context features;
- **Operator** — one model per physical operator (100% coverage).

A family's models are fit together: the family's feature matrix is
built once, and every signature group with ≥ ``MIN_OCCURRENCES``
training rows (§4.1) gets its elastic net from one batched
coordinate-descent solve (:meth:`ElasticNet.fit_groups`). The Operator
family always fits (it is the coverage backstop). With Spark, the
operator log is split into hash buckets of signatures and each
`applyInPandas` task runs the same family fitter on its bucket — the
analogue of the paper's SCOPE-based parallel model trainer (§5.1).

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

from repro.core.features import feature_matrix
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
    n_iter: int = 0  # coordinate-descent sweeps the fit ran

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
        keys, row_key = np.unique(pdf[spec.key_col].to_numpy(), return_inverse=True)
        bank = self.models[family]
        found = [bank.get(key) for key in keys.tolist()]
        covered = np.array([m is not None for m in found], dtype=bool)
        out = np.full(len(pdf), np.nan)
        if not covered.any():
            return out
        # Stack the covered keys' models; each row gathers its model.
        models = [m for m in found if m is not None]
        slot = np.cumsum(covered) - 1
        rows = np.flatnonzero(covered[row_key])
        m = slot[row_key[rows]]
        coef = np.stack([mod.raw_coef for mod in models])[m]
        intercept = np.array([mod.raw_intercept for mod in models])[m]
        z_lo = np.array([mod.z_lo for mod in models])[m]
        z_hi = np.array([mod.z_hi for mod in models])[m]
        z = np.clip((X[rows] * coef).sum(axis=1) + intercept, z_lo, z_hi)
        out[rows] = np.expm1(np.clip(z, -30.0, 30.0))
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
        T.StructField("n_iter", T.LongType()),
    ]
)
_TRAIN_COLS = ["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual"]
BUCKETS_PER_CORE = 4  # Spark tasks per core of a family's training stage


def train_family_spark(
    spark_ops: DataFrame, spec: FamilySpec, alpha: float = 1.0
) -> dict[object, LinearModel]:
    """:func:`train_family_pandas` in parallel on Spark: signatures are
    hashed into buckets, and each `applyInPandas` task fits one bucket's
    groups in one batched solve."""
    n_buckets = BUCKETS_PER_CORE * spark_ops.sparkSession.sparkContext.defaultParallelism

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        models = train_family_pandas(pdf, spec, alpha)
        return pd.DataFrame(
            [(str(k), m.raw_coef.tolist(), m.raw_intercept, m.n_train, m.z_lo, m.z_hi,
              m.std_coef.tolist(), m.n_iter) for k, m in models.items()],
            columns=_RESULT_SCHEMA.fieldNames(),
        )

    rows = (
        spark_ops.select(*_TRAIN_COLS, spec.key_col)
        .withColumn("bucket", F.pmod(F.hash(spec.key_col), F.lit(n_buckets)))
        .repartition(n_buckets, "bucket")  # a fixed count, which AQE keeps
        .groupBy("bucket")
        .applyInPandas(fit, schema=_RESULT_SCHEMA)
        .collect()
    )
    key_dtype = None if spec.key_col == "op" else int
    out: dict[object, LinearModel] = {}
    for r in rows:
        key = r["key"] if key_dtype is None else key_dtype(r["key"])
        out[key] = LinearModel(
            np.array(r["coef"]), r["intercept"], r["n_train"], r["z_lo"], r["z_hi"],
            np.array(r["std_coef"]), r["n_iter"],
        )
    return out


def train_family_pandas(
    ops: pd.DataFrame, spec: FamilySpec, alpha: float = 1.0
) -> dict[object, LinearModel]:
    """Fit one elastic net per signature group with at least
    ``spec.min_occurrences`` rows, all in one batched solve."""
    keys, row_key, counts = np.unique(ops[spec.key_col].to_numpy(), return_inverse=True,
                                      return_counts=True)
    fitted = counts >= spec.min_occurrences
    # The fitted groups' rows, grouped by key in log order within a group.
    rows = np.argsort(row_key, kind="stable")
    rows = rows[fitted[row_key[rows]]]
    n_train = counts[fitted]
    X = feature_matrix(ops, context=spec.context)[rows]
    y = ops["actual"].to_numpy(dtype=float)[rows]
    fits = ElasticNet(alpha=alpha).fit_groups(X, y, np.concatenate([[0], np.cumsum(n_train)]))
    raw_coef, raw_intercept = fits.raw_coef, fits.raw_intercept
    return {
        key: LinearModel(raw_coef[k], float(raw_intercept[k]), int(n_train[k]),
                         float(fits.z_lo[k]), float(fits.z_hi[k]), fits.coef[k],
                         int(fits.n_iter[k]))
        for k, key in enumerate(keys[fitted].tolist())
    }


def train_bank(
    ops: pd.DataFrame,
    spark: SparkSession | None = None,
    alpha: float = 1.0,
) -> ModelBank:
    """Train all four families over a training log.

    With a SparkSession, each family trains as one distributed
    `applyInPandas` job over hash buckets of signatures (§5.1: "we learn
    each of the four individual models independently and in
    parallel"); otherwise on the driver.
    """
    bank = ModelBank()
    if spark is not None:
        spark_ops = spark.createDataFrame(
            ops[_TRAIN_COLS + ["sig_sub", "sig_approx", "sig_opinput", "op"]]
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
