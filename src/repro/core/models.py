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

The trained bank is one table of arrays (:class:`ModelBank`), one row
per model, holding raw-feature weights: prediction is a dot product,
and the planner's §5.1 look-up (:meth:`ModelBank.resolve`) hands the
analytical partition exploration (§5.3) the weights it reads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.features import ALL_FEATURE_NAMES, feature_matrix
from repro.core.learners.linear import ElasticNet

MIN_OCCURRENCES = 5


@dataclass(frozen=True)
class FamilySpec:
    name: str
    key_col: str  # signature column in the operator log
    context: bool  # include CL/D features (§4.2 Op-Input extras)
    min_occurrences: int


# In the §5.1 look-up order: the most specialized covering model wins.
FAMILIES: list[FamilySpec] = [
    FamilySpec("Op-Subgraph", "sig_sub", False, MIN_OCCURRENCES),
    FamilySpec("Op-SubgraphApprox", "sig_approx", False, MIN_OCCURRENCES),
    FamilySpec("Op-Input", "sig_opinput", True, MIN_OCCURRENCES),
    FamilySpec("Operator", "op", True, 1),
]
FAMILY_BY_NAME = {f.name: f for f in FAMILIES}
FAMILY_INDEX = {f.name: i for i, f in enumerate(FAMILIES)}
N_WEIGHTS = len(ALL_FEATURE_NAMES)  # every model's weights, padded to the context columns


@dataclass(eq=False)
class ModelBank:
    """Trained individual models as one table of arrays, one row per model.

    Row ``m`` is the elastic net of family ``FAMILIES[family[m]]`` for
    the signature (or operator name) ``key[m]``. Weights have
    ``N_WEIGHTS`` columns: a family without the context features has 0
    as its last two weights. A ``(family, key) → row`` index is built
    on construction; prediction and the planner's look-up both gather
    rows through it.
    """

    family: np.ndarray  # (M,) index into FAMILIES
    key: np.ndarray  # (M,) int signature, or operator name
    raw_coef: np.ndarray  # (M, N_WEIGHTS) weights on raw features
    raw_intercept: np.ndarray  # (M,)
    z_lo: np.ndarray  # (M,) log-space clip bounds: training target range
    z_hi: np.ndarray  # (M,) plus headroom (extrapolation guard)
    std_coef: np.ndarray  # (M, N_WEIGHTS) standardized-space weights (Fig 5)
    n_train: np.ndarray  # (M,) training rows
    n_iter: np.ndarray  # (M,) coordinate-descent sweeps the fit ran

    def __post_init__(self):
        self.key = np.asarray(self.key, dtype=object)
        self._row = {fk: m for m, fk in enumerate(zip(self.family.tolist(), self.key.tolist()))}

    @classmethod
    def concat(cls, banks: list["ModelBank"]) -> "ModelBank":
        return cls(**{f.name: np.concatenate([getattr(b, f.name) for b in banks])
                      for f in fields(cls)})

    def __len__(self) -> int:
        return len(self.key)

    def n_models(self, family: str) -> int:
        return int(np.count_nonzero(self.family == FAMILY_INDEX[family]))

    # -- prediction ----------------------------------------------------
    def predict_family(self, family: str, pdf: pd.DataFrame) -> np.ndarray:
        """Predict ``pdf`` rows with ``family``; NaN where not covered."""
        f = FAMILY_INDEX[family]
        spec = FAMILIES[f]
        X = feature_matrix(pdf, context=spec.context)
        keys, row_key = np.unique(pdf[spec.key_col].to_numpy(), return_inverse=True)
        get = self._row.get
        model = np.array([get((f, key), -1) for key in keys.tolist()], dtype=np.intp)[row_key]
        rows = np.flatnonzero(model >= 0)
        m = model[rows]
        z = (X[rows] * self.raw_coef[m, :X.shape[1]]).sum(axis=1) + self.raw_intercept[m]
        out = np.full(len(pdf), np.nan)
        out[rows] = np.expm1(np.clip(np.clip(z, self.z_lo[m], self.z_hi[m]), -30.0, 30.0))
        return out

    def predict_all(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """``pdf`` plus one ``pred_<family>`` column per family."""
        out = pdf.copy()
        for spec in FAMILIES:
            out[f"pred_{spec.key_col}"] = self.predict_family(spec.name, pdf)
        return out

    def resolve(self, cols) -> tuple[np.ndarray, ...]:
        """The most specialized covering model of each operator (§5.1
        look-up order: subgraph → subgraphApprox → input → operator).

        ``cols`` maps each family's key column to one key per operator.
        Returns ``(coef, intercept, z_lo, z_hi, covered)``, one row per
        operator; an uncovered operator's row is all zeros."""
        get = self._row.get
        # enumerate(keys) yields the operator's (family, key) pairs in look-up order.
        rows = np.array(
            [next((m for m in map(get, enumerate(keys)) if m is not None), -1)
             for keys in zip(*(cols[spec.key_col] for spec in FAMILIES))],
            dtype=np.intp,
        )
        covered = rows >= 0
        m = rows[covered]
        coef = np.zeros((len(rows), N_WEIGHTS))
        intercept, z_lo, z_hi = np.zeros(len(rows)), np.zeros(len(rows)), np.zeros(len(rows))
        coef[covered], intercept[covered] = self.raw_coef[m], self.raw_intercept[m]
        z_lo[covered], z_hi[covered] = self.z_lo[m], self.z_hi[m]
        return coef, intercept, z_lo, z_hi, covered


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("key", T.StringType()),
        T.StructField("raw_coef", T.ArrayType(T.DoubleType())),
        T.StructField("raw_intercept", T.DoubleType()),
        T.StructField("z_lo", T.DoubleType()),
        T.StructField("z_hi", T.DoubleType()),
        T.StructField("std_coef", T.ArrayType(T.DoubleType())),
        T.StructField("n_train", T.LongType()),
        T.StructField("n_iter", T.LongType()),
    ]
)
_TRAIN_COLS = ["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual"]
BUCKETS_PER_CORE = 4  # Spark tasks per core of a family's training stage


def _padded(w: np.ndarray) -> np.ndarray:
    """(K, d) weights → (K, N_WEIGHTS), zero in the missing context columns."""
    return np.pad(w, ((0, 0), (0, N_WEIGHTS - w.shape[1])))


def train_family_spark(spark_ops: DataFrame, spec: FamilySpec, alpha: float = 1.0) -> ModelBank:
    """:func:`train_family_pandas` in parallel on Spark: signatures are
    hashed into buckets, and each `applyInPandas` task fits one bucket's
    groups in one batched solve."""
    n_buckets = BUCKETS_PER_CORE * spark_ops.sparkSession.sparkContext.defaultParallelism

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        fam = train_family_pandas(pdf, spec, alpha)
        return pd.DataFrame({
            "key": fam.key.astype(str),
            "raw_coef": pd.Series(list(fam.raw_coef), dtype=object),
            "raw_intercept": fam.raw_intercept, "z_lo": fam.z_lo, "z_hi": fam.z_hi,
            "std_coef": pd.Series(list(fam.std_coef), dtype=object),
            "n_train": fam.n_train, "n_iter": fam.n_iter,
        })

    out = (
        spark_ops.select(*_TRAIN_COLS, spec.key_col)
        .withColumn("bucket", F.pmod(F.hash(spec.key_col), F.lit(n_buckets)))
        .repartition(n_buckets, "bucket")  # a fixed count, which AQE keeps
        .groupBy("bucket")
        .applyInPandas(fit, schema=_RESULT_SCHEMA)
        .toPandas()
    )
    key = out["key"].to_numpy()
    if spec.key_col != "op":
        key = key.astype(np.int64)  # signatures travel as strings
    order = np.argsort(key, kind="stable")  # the driver trainer's row order
    out = out.iloc[order]

    def weights(f: str) -> np.ndarray:
        return np.array(out[f].tolist(), dtype=float).reshape(len(out), N_WEIGHTS)

    return ModelBank(
        family=np.full(len(out), FAMILY_INDEX[spec.name]), key=key[order],
        raw_coef=weights("raw_coef"), raw_intercept=out["raw_intercept"].to_numpy(float),
        z_lo=out["z_lo"].to_numpy(float), z_hi=out["z_hi"].to_numpy(float),
        std_coef=weights("std_coef"), n_train=out["n_train"].to_numpy(np.int64),
        n_iter=out["n_iter"].to_numpy(np.int64),
    )


def train_family_pandas(ops: pd.DataFrame, spec: FamilySpec, alpha: float = 1.0) -> ModelBank:
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
    return ModelBank(
        family=np.full(len(n_train), FAMILY_INDEX[spec.name]), key=keys[fitted],
        raw_coef=_padded(fits.raw_coef), raw_intercept=fits.raw_intercept,
        z_lo=fits.z_lo, z_hi=fits.z_hi, std_coef=_padded(fits.coef),
        n_train=n_train, n_iter=fits.n_iter,
    )


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
    if spark is None:
        return ModelBank.concat([train_family_pandas(ops, spec, alpha) for spec in FAMILIES])
    spark_ops = spark.createDataFrame(
        ops[_TRAIN_COLS + ["sig_sub", "sig_approx", "sig_opinput", "op"]]
    ).persist()
    try:
        return ModelBank.concat([train_family_spark(spark_ops, spec, alpha) for spec in FAMILIES])
    finally:
        spark_ops.unpersist()
