"""Histogram-based CART regression tree.

Used directly as the paper's "Decision tree: depth = 15" model (§3.4)
and as the weak learner inside the random forest and FastTree (MART
gradient boosting) ensembles. Features are quantile-binned once per fit
(max 64 bins), so finding the best split of a node is O(features ×
bins) after one O(n) accumulation pass — fast enough to train tens of
thousands of small models and several-thousand-row ensembles in numpy.
"""
from __future__ import annotations

import numpy as np

_MAX_BINS = 64


def quantile_bin(X: np.ndarray, max_bins: int = _MAX_BINS):
    """Per-feature quantile bin edges and binned codes.

    Returns ``(codes, edges)`` where ``codes[i, j]`` is the bin index of
    sample i on feature j and ``edges[j]`` are the interior thresholds
    (length = n_bins_j - 1). Repeated quantiles collapse, so a constant
    column gets no empty bins.
    """
    qs = np.linspace(0, 1, max_bins + 1)[1:-1]
    edges = [np.unique(np.quantile(X[:, j], qs)) for j in range(X.shape[1])]
    return bin_codes(X, edges), edges


def bin_codes(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Bin codes of ``X`` under per-feature ``edges`` (from
    :func:`quantile_bin`). Unseen values at predict time fall into the
    outer bins, matching standard histogram-GBT behaviour."""
    X = np.asarray(X, dtype=float)
    codes = np.zeros(X.shape, dtype=np.int16)
    for j, e in enumerate(edges):
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
    return codes


class _Tree:
    """Flat-array regression tree over pre-binned features."""

    def __init__(self, max_depth: int, min_samples_leaf: int, min_gain: float = 1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain

    def fit_binned(self, codes: np.ndarray, y: np.ndarray, feat_idx: np.ndarray | None = None):
        n, d = codes.shape
        self.feature: list[int] = []
        self.threshold: list[int] = []  # split on code <= threshold
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        feats = np.arange(d) if feat_idx is None else feat_idx
        self._grow(codes, y, np.arange(n), 0, feats)
        return self

    def _new_node(self, val: float) -> int:
        self.feature.append(-1)
        self.threshold.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(val)
        return len(self.value) - 1

    def _grow(self, codes, y, idx, depth, feats) -> int:
        node = self._new_node(float(y[idx].mean()))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node
        yv = y[idx]
        total_sum = yv.sum()
        total_cnt = len(idx)
        parent_score = total_sum * total_sum / total_cnt
        best = (self.min_gain, -1, -1)  # (gain, feature, threshold-code)
        sub = codes[idx]
        for j in feats:
            cj = sub[:, j]
            nb = int(cj.max()) + 1
            if nb < 2:
                continue
            cnt = np.bincount(cj, minlength=nb).astype(float)
            s = np.bincount(cj, weights=yv, minlength=nb)
            ccnt = np.cumsum(cnt)[:-1]
            csum = np.cumsum(s)[:-1]
            valid = (ccnt >= self.min_samples_leaf) & (
                (total_cnt - ccnt) >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                score = csum**2 / ccnt + (total_sum - csum) ** 2 / (total_cnt - ccnt)
            score = np.where(valid, score, -np.inf)
            k = int(np.argmax(score))
            gain = score[k] - parent_score
            if gain > best[0]:
                best = (gain, int(j), k)
        if best[1] < 0:
            return node
        _, j, thr = best
        mask = codes[idx, j] <= thr
        li = idx[mask]
        ri = idx[~mask]
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._grow(codes, y, li, depth + 1, feats)
        self.right[node] = self._grow(codes, y, ri, depth + 1, feats)
        return node

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        out = np.empty(len(codes))
        node_of = np.zeros(len(codes), dtype=np.int64)
        # Iteratively route all samples; depth is small so this loops
        # at most max_depth times over active samples.
        active = feature[node_of] >= 0
        while active.any():
            ai = np.where(active)[0]
            nd = node_of[ai]
            f = feature[nd]
            goes_left = codes[ai, f] <= threshold[nd]
            node_of[ai] = np.where(goes_left, left[nd], right[nd])
            active = feature[node_of] >= 0
        out[:] = value[node_of]
        return out


class DecisionTreeRegressor:
    """CART with the paper's §3.4 hyper-parameter (depth = 15).

    Fits on the log1p-transformed target (MSLE objective, like every
    CLEO model) and predicts on the raw scale.
    """

    def __init__(self, max_depth: int = 15, min_samples_leaf: int = 2, log_target: bool = True):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.log_target = log_target

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.log1p(np.maximum(y, 0.0)) if self.log_target else y
        codes, self.edges_ = quantile_bin(X)
        self.tree_ = _Tree(self.max_depth, self.min_samples_leaf).fit_binned(codes, t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.tree_.predict_binned(bin_codes(X, self.edges_))
        return np.expm1(np.clip(z, -30, 30)) if self.log_target else z
