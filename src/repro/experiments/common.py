"""Shared experiment plumbing: workload generation, training, scoring.

Each cluster's logs and trained models are built on the driver the first
time a harness asks for them and kept in-process (one memo per cluster
name), so the tables of one run share one set of artifacts.

The train/test protocol follows §5.1/§6.2 (see DESIGN.md): individual
models train on day 1, the combined model trains on the individual
models' day-2 predictions, and every table evaluates day 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import pandas as pd

from repro.core.combined import CombinedModel
from repro.core.models import ModelBank, train_bank
from repro.scope.workload import PRODUCTION_CLUSTERS, Cluster, ClusterConfig

DAYS = [1, 2, 3]
TRAIN_DAYS = [1]  # individual models
COMBINED_DAYS = [2]  # meta-ensemble
TEST_DAYS = [3]


def cluster_config(name: str) -> ClusterConfig:
    for cfg in PRODUCTION_CLUSTERS:
        if cfg.name == name:
            return cfg
    raise KeyError(name)


@cache
def get_logs(name: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(ops, jobs) DataFrames for one production cluster over DAYS."""
    return Cluster(cluster_config(name)).generate_days(DAYS)


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


@cache
def trained_cluster(name: str) -> TrainedCluster:
    """Models for one cluster, trained on the driver and scored on its
    test days. Every caller shares the returned objects: harnesses read
    them and never modify them in place."""
    ops, jobs = get_logs(name)
    train = ops[ops.day.isin(TRAIN_DAYS)]
    comb_src = ops[ops.day.isin(COMBINED_DAYS)]
    test = ops[ops.day.isin(TEST_DAYS)].reset_index(drop=True)
    bank = train_bank(train)
    combined = CombinedModel().fit(bank, comb_src)
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
