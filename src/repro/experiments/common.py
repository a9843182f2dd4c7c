"""Shared experiment plumbing: workload generation, training, scoring —
disk-cached under ``<repo>/.cache`` so the table harnesses and
benchmarks reuse one set of artifacts. An artifact's file name carries a
hash of its inputs (:func:`artifact_key`), so changing any of them
builds a new artifact instead of reading a stale one.

The train/test protocol follows §5.1/§6.2 (see DESIGN.md): individual
models train on day 1, the combined model trains on the individual
models' day-2 predictions, and every table evaluates day 3.
"""
from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.combined import CombinedModel
from repro.core.models import ModelBank, train_bank
from repro.scope.workload import PRODUCTION_CLUSTERS, Cluster, ClusterConfig

log = logging.getLogger(__name__)

CACHE_DIR = os.environ.get(
    "REPRO_CACHE", os.path.join(os.path.dirname(__file__), "..", "..", "..", ".cache")
)
DAYS = [1, 2, 3]
TRAIN_DAYS = [1]  # individual models
COMBINED_DAYS = [2]  # meta-ensemble
TEST_DAYS = [3]


def cluster_config(name: str) -> ClusterConfig:
    for cfg in PRODUCTION_CLUSTERS:
        if cfg.name == name:
            return cfg
    raise KeyError(name)


@functools.lru_cache(maxsize=None)
def _source_digest(root: Path = Path(__file__).resolve().parents[1]) -> str:
    """SHA-256 of the ``scope`` and ``core`` package sources under
    ``root`` (every ``.py`` file's path and bytes)."""
    h = hashlib.sha256()
    for pkg in ("scope", "core"):
        for path in sorted((root / pkg).rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def artifact_key(name: str, cluster: str) -> str:
    """Cache key of artifact ``name`` derived from ``cluster``'s logs: the
    name, the cluster, and a hash of everything the artifact depends on —
    the cluster configuration, the day split, and the ``repro.scope`` and
    ``repro.core`` sources."""
    inputs = repr((cluster_config(cluster), DAYS, TRAIN_DAYS, COMBINED_DAYS, TEST_DAYS))
    digest = hashlib.sha256((inputs + _source_digest()).encode()).hexdigest()
    return f"{name}_{cluster}_{digest[:16]}"


def _cache_path(key: str) -> str:
    os.makedirs(CACHE_DIR, exist_ok=True)
    return os.path.join(CACHE_DIR, f"{key}.pkl")


def _cached(key: str, fn):
    """``fn()``, pickled under ``key``; an unreadable artifact (corrupt,
    truncated, or written by code that has since changed) is a miss."""
    path = _cache_path(key)
    if os.path.exists(path):
        try:
            with open(path, "rb") as f:
                return pickle.load(f)
        # The exceptions pickle.load documents for bad or stale input.
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, ValueError) as exc:
            log.warning("cache artifact %s is unreadable (%r); rebuilding it", path, exc)
    out = fn()
    with open(path, "wb") as f:
        pickle.dump(out, f)
    return out


def get_logs(name: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(ops, jobs) DataFrames for one production cluster over DAYS."""
    return _cached(artifact_key("logs", name),
                   lambda: Cluster(cluster_config(name)).generate_days(DAYS))


@dataclass
class TrainedCluster:
    """Everything the table experiments need for one cluster."""

    name: str
    ops: pd.DataFrame
    jobs: pd.DataFrame
    bank: ModelBank
    combined: CombinedModel
    scored_test: pd.DataFrame  # test rows + pred_* columns + pred_combined

    @property
    def train(self) -> pd.DataFrame:
        return self.ops[self.ops.day.isin(TRAIN_DAYS)]

    @property
    def test(self) -> pd.DataFrame:
        return self.ops[self.ops.day.isin(TEST_DAYS)]


def trained_cluster(name: str, spark=None) -> TrainedCluster:
    """Train (or load cached) models for one cluster.

    When a SparkSession is supplied and no cache exists, the individual
    model families are trained with the Spark-parallel trainer.
    """
    ops, jobs = get_logs(name)
    train = ops[ops.day.isin(TRAIN_DAYS)]
    comb_src = ops[ops.day.isin(COMBINED_DAYS)]
    test = ops[ops.day.isin(TEST_DAYS)].reset_index(drop=True)

    def build():
        bank = train_bank(train, spark=spark)
        combined = CombinedModel().fit(bank, comb_src)
        return bank, combined

    bank, combined = _cached(artifact_key("models", name), build)
    scored = bank.predict_all(test)
    scored["pred_combined"] = combined.predict(bank, test)
    return TrainedCluster(name, ops, jobs, bank, combined, scored)


def model_rows(scored: pd.DataFrame, include_p95: bool = False) -> list[dict]:
    """Metric rows for Default + the four families + Combined, in the
    layout of Tables 5 and 7."""
    from repro.metrics import summarize

    a = scored["actual"].to_numpy()
    rows = []
    specs = [
        ("Default", scored["cost_default"].to_numpy()),
        ("Op-Subgraph", scored["pred_sig_sub"].to_numpy()),
        ("Op-SubgraphApprox", scored["pred_sig_approx"].to_numpy()),
        ("Op-Input", scored["pred_sig_opinput"].to_numpy()),
        ("Operator", scored["pred_op"].to_numpy()),
        ("Combined", scored["pred_combined"].to_numpy()),
    ]
    for name, v in specs:
        m = ~np.isnan(v)
        s = summarize(v[m], a[m])
        row = {
            "model": name,
            "correlation": round(s["correlation"], 2),
            "median_error_pct": round(s["median_error_pct"], 1),
            "coverage_pct": round(100.0 * m.mean(), 1),
        }
        if include_p95:
            row["p95_error_pct"] = round(s["p95_error_pct"], 1)
        rows.append(row)
    return rows
