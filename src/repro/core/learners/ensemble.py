"""Tree ensembles: random forest and FastTree (MART gradient boosting).

Hyper-parameters follow the paper: random forest with 20 trees of depth
5 (§3.4); FastTree regression — "a variant of the gradient boosted
regression trees that uses an efficient implementation of the MART
gradient boosting algorithm" — with a maximum of 20 trees, depth 5,
mean-squared-log-error loss and a sub-sampling rate of 0.9 (§4.3).
Both fit in log1p space (the MSLE objective) over quantile-binned
features shared across all trees, and keep their trees as one
:class:`~repro.core.learners.tree.Forest`. The random forest's trees are
independent, so they grow together in one level pass. Each boosting
round fits the residual of the rounds before it, so FastTree grows one
tree per round and joins them; :meth:`FastTreeRegressor.fit_many` fits
many models (the combined model's per-operator meta-models) at once,
growing round r of every model as one forest.
"""
from __future__ import annotations

import numpy as np

from repro.core.learners.tree import Forest, bin_codes, grow, quantile_bin


class RandomForestRegressor:
    """Bagged depth-5 trees with sqrt-feature subsampling per tree."""

    n_estimators = 20
    max_depth = 5
    min_samples_leaf = 2
    seed = 0

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

    n_estimators = 20
    max_depth = 5
    learning_rate = 0.25
    subsample = 0.9
    min_samples_leaf = 3
    seed = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FastTreeRegressor":
        """The one-model case of :meth:`fit_many`."""
        self._boost([self], [X], [y])
        return self

    def fit_many(self, Xs: list[np.ndarray], ys: list[np.ndarray]) -> list["FastTreeRegressor"]:
        """One model per ``(X, y)`` pair, each exactly the model
        :meth:`fit` would give. Every ``X`` has the same columns."""
        models = [FastTreeRegressor() for _ in Xs]
        self._boost(models, Xs, ys)
        return models

    def _boost(self, models: list["FastTreeRegressor"], Xs, ys) -> None:
        """Fit ``models[i]`` to ``(Xs[i], ys[i])``, boosting round r of
        every model in one :func:`grow` call.

        Each model keeps its own bin edges, base score, subsample RNG and
        residual; the round's trees grow over the stacked subsample rows
        of all models, and ``Forest.take`` gives each model its own trees
        back. Every step on a model's rows is what a solo fit computes.
        """
        if not models:
            return
        ts = [np.log1p(np.maximum(np.asarray(y, dtype=float), 0.0)) for y in ys]
        binned = [quantile_bin(np.asarray(X, dtype=float)) for X in Xs]
        for model, t, (_, edges) in zip(models, ts, binned):
            model.edges_, model.base_ = edges, float(t.mean())
        codes = np.concatenate([c for c, _ in binned])
        t = np.concatenate(ts)
        n = np.array([len(t_k) for t_k in ts])
        start = np.concatenate([[0], np.cumsum(n)])
        pred = np.repeat([model.base_ for model in models], n)
        rngs = [np.random.default_rng(model.seed) for model in models]
        size = np.maximum(1, (self.subsample * n).astype(int))
        bounds = np.concatenate([[0], np.cumsum(size)])
        model_of_row = np.repeat(np.arange(len(models)), n)
        rounds = []
        for _ in range(self.n_estimators):
            sub = np.concatenate([
                lo + (rng.choice(n_k, size=m, replace=False) if m < n_k else np.arange(n_k))
                for rng, lo, n_k, m in zip(rngs, start, n, size)
            ])
            tree = grow(codes[sub], t[sub] - pred[sub], self.max_depth, self.min_samples_leaf,
                        bounds=bounds)
            # Every row is routed through its own model's tree only.
            pred += self.learning_rate * tree.leaf_values(codes, tree.roots[model_of_row])
            rounds.append(tree)
        forest = Forest.concat(rounds)
        for i, model in enumerate(models):
            model.forest_ = forest.take(np.arange(i, len(forest.roots), len(models)))

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
