"""Tree ensembles: random forest and FastTree (MART gradient boosting).

Hyper-parameters follow the paper: random forest with 20 trees of depth
5 (§3.4); FastTree regression — "a variant of the gradient boosted
regression trees that uses an efficient implementation of the MART
gradient boosting algorithm" — with a maximum of 20 trees, depth 5,
mean-squared-log-error loss and a sub-sampling rate of 0.9 (§4.3).
Both fit in log1p space (the MSLE objective) over quantile-binned
features shared across all trees.
"""
from __future__ import annotations

import numpy as np

from repro.core.learners.tree import _Tree, bin_codes, quantile_bin


class _BinnedEnsembleBase:
    def _bin_fit(self, X: np.ndarray):
        codes, self.edges_ = quantile_bin(np.asarray(X, dtype=float))
        return codes


class RandomForestRegressor(_BinnedEnsembleBase):
    """Bagged depth-5 trees with sqrt-feature subsampling per tree."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        log_target: bool = True,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.log_target = log_target
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        y = np.asarray(y, dtype=float)
        t = np.log1p(np.maximum(y, 0.0)) if self.log_target else y
        codes = self._bin_fit(X)
        n, d = codes.shape
        rng = np.random.default_rng(self.seed)
        n_feats = max(1, int(np.sqrt(d)))
        self.trees_: list[_Tree] = []
        for _ in range(self.n_estimators):
            boot = rng.integers(0, n, n)
            feats = rng.choice(d, size=n_feats, replace=False)
            tr = _Tree(self.max_depth, self.min_samples_leaf)
            tr.fit_binned(codes[boot], t[boot], feat_idx=feats)
            self.trees_.append(tr)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        codes = bin_codes(X, self.edges_)
        z = np.mean([t.predict_binned(codes) for t in self.trees_], axis=0)
        return np.expm1(np.clip(z, -30, 30)) if self.log_target else z


class FastTreeRegressor(_BinnedEnsembleBase):
    """Stochastic gradient-boosted regression trees (MART).

    Each successive tree fits the residual of the trees preceding it
    (§4.3), on a fresh 90% subsample; shrinkage ``learning_rate`` damps
    each stage.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 5,
        learning_rate: float = 0.25,
        subsample: float = 0.9,
        min_samples_leaf: int = 3,
        log_target: bool = True,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.log_target = log_target
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FastTreeRegressor":
        y = np.asarray(y, dtype=float)
        t = np.log1p(np.maximum(y, 0.0)) if self.log_target else y
        codes = self._bin_fit(X)
        n = len(t)
        rng = np.random.default_rng(self.seed)
        self.base_ = float(t.mean())
        pred = np.full(n, self.base_)
        self.trees_: list[_Tree] = []
        m = max(1, int(self.subsample * n))
        for _ in range(self.n_estimators):
            sub = rng.choice(n, size=m, replace=False) if m < n else np.arange(n)
            resid = t[sub] - pred[sub]
            tr = _Tree(self.max_depth, self.min_samples_leaf)
            tr.fit_binned(codes[sub], resid)
            self.trees_.append(tr)
            pred += self.learning_rate * tr.predict_binned(codes)
        return self

    def predict_log(self, X: np.ndarray) -> np.ndarray:
        codes = bin_codes(X, self.edges_)
        z = np.full(len(codes), self.base_)
        for t in self.trees_:
            z += self.learning_rate * t.predict_binned(codes)
        return z

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.predict_log(X)
        return np.expm1(np.clip(z, -30, 30)) if self.log_target else z
