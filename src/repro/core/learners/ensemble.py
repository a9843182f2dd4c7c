"""Tree ensembles: random forest and FastTree (MART gradient boosting).

Hyper-parameters follow the paper: random forest with 20 trees of depth
5 (§3.4); FastTree regression — "a variant of the gradient boosted
regression trees that uses an efficient implementation of the MART
gradient boosting algorithm" — with a maximum of 20 trees, depth 5,
mean-squared-log-error loss and a sub-sampling rate of 0.9 (§4.3).
Both fit in log1p space (the MSLE objective) over quantile-binned
features shared across all trees, and keep their trees as one
:class:`~repro.core.learners.tree.Forest`. The random forest's trees are
independent, so they grow together in one level pass; each boosting
round fits the residual of the rounds before it, so FastTree grows one
tree per round and joins them.
"""
from __future__ import annotations

import numpy as np

from repro.core.learners.tree import Forest, bin_codes, grow, quantile_bin


class RandomForestRegressor:
    """Bagged depth-5 trees with sqrt-feature subsampling per tree."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        t = np.log1p(np.maximum(np.asarray(y, dtype=float), 0.0))
        codes, self.edges_ = quantile_bin(np.asarray(X, dtype=float))
        n, d = codes.shape
        rng = np.random.default_rng(self.seed)
        n_feats = max(1, int(np.sqrt(d)))
        boots, feats = [], []
        for _ in range(self.n_estimators):
            boots.append(rng.integers(0, n, n))
            feats.append(rng.choice(d, size=n_feats, replace=False))
        # Tree k fits the k-th block of n bootstrap rows.
        rows = np.concatenate(boots)
        self.forest_ = grow(codes[rows], t[rows], self.max_depth, self.min_samples_leaf,
                            bounds=np.arange(self.n_estimators + 1) * n, feats=np.array(feats))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.forest_.predict_binned(bin_codes(X, self.edges_)).mean(axis=0)
        return np.expm1(np.clip(z, -30, 30))


class FastTreeRegressor:
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
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FastTreeRegressor":
        t = np.log1p(np.maximum(np.asarray(y, dtype=float), 0.0))
        codes, self.edges_ = quantile_bin(np.asarray(X, dtype=float))
        n = len(t)
        rng = np.random.default_rng(self.seed)
        self.base_ = float(t.mean())
        pred = np.full(n, self.base_)
        rounds = []
        m = max(1, int(self.subsample * n))
        for _ in range(self.n_estimators):
            sub = rng.choice(n, size=m, replace=False) if m < n else np.arange(n)
            rounds.append(grow(codes[sub], t[sub] - pred[sub], self.max_depth,
                               self.min_samples_leaf))
            pred += self.learning_rate * rounds[-1].predict_binned(codes)[0]
        self.forest_ = Forest.concat(rounds)
        return self

    def predict_log(self, X: np.ndarray) -> np.ndarray:
        """Prediction in log1p space: the base score plus each tree's
        shrunk leaf value, added in tree order."""
        codes = bin_codes(X, self.edges_)
        z = np.full(len(codes), self.base_)
        for row in self.forest_.predict_binned(codes):
            z += self.learning_rate * row
        return z

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.expm1(np.clip(self.predict_log(X), -30, 30))
