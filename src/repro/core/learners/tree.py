"""Histogram-based CART regression tree.

Used directly as the paper's "Decision tree: depth = 15" model (§3.4)
and as the weak learner inside the random forest and FastTree (MART
gradient boosting) ensembles. Features are quantile-binned once per fit
(max 64 bins). The tree grows one depth level at a time, like the
"hist" method of XGBoost (Chen & Guestrin, KDD 2016) and LightGBM (Ke
et al., NeurIPS 2017): one pass over the level's samples accumulates a
``(node, feature, bin)`` histogram of counts and target sums, and every
split of every node at that depth is scored from it at once. A level
costs O(n × features) plus O(nodes × features × bins), with a number of
numpy calls that does not grow with the feature count.
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
    """Flat-array regression tree over pre-binned features.

    After :meth:`fit_binned`, node ``i`` is described by ``feature[i]``
    (-1 for a leaf), ``threshold[i]`` (samples with ``code <= threshold``
    go left), ``left[i]``/``right[i]`` (child indices) and ``value[i]``
    (the mean target of its samples). The root is node 0 and nodes are
    numbered breadth-first.
    """

    def __init__(self, max_depth: int, min_samples_leaf: int, min_gain: float = 1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain

    def fit_binned(self, codes: np.ndarray, y: np.ndarray, feat_idx: np.ndarray | None = None):
        """Grow the tree one depth level at a time.

        Each level scores every split of every splittable node from one
        ``(node, feature, bin)`` histogram of counts and target sums.
        Within a node, each bin's samples are summed in ascending sample
        order, and a node's own total comes from its samples, so every
        score is computed exactly as a node-by-node scan would compute it.
        The best bin of each feature is the first maximum of the score,
        and the best feature the first maximum of the gain over the
        parent, in ``feat_idx`` order: subtracting the parent score can
        round two different scores to one gain, so the order matters.
        """
        n = len(codes)
        feats = np.arange(codes.shape[1]) if feat_idx is None else np.asarray(feat_idx)
        X = codes[:, feats]
        n_feat = len(feats)
        n_bins = int(X.max()) + 1 if X.size else 1
        msl = self.min_samples_leaf
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node(idx):
            """Append a leaf for samples ``idx``; return ``(node, idx, total)``.
            Its value, total over count, is ``y[idx].mean()`` bit for bit."""
            total = y[idx].sum()
            for a in (feature, threshold, left, right):
                a.append(-1)
            value.append(float(total / len(idx)))
            return len(value) - 1, idx, total

        frontier = [new_node(np.arange(n))]  # sample indices ascend within a node
        # A single bin everywhere leaves nothing to split on.
        for _ in range(self.max_depth if n_bins > 1 else 0):
            grow = [nd for nd in frontier if len(nd[1]) >= 2 * msl]
            if not grow:
                break
            m = len(grow)
            rows = np.concatenate([idx for _, idx, _ in grow])
            total_cnt = np.array([len(idx) for _, idx, _ in grow])
            total_sum = np.array([total for _, _, total in grow])
            slot = np.repeat(np.arange(m), total_cnt)
            key = ((slot[:, None] * n_feat + np.arange(n_feat)) * n_bins + X[rows]).ravel()
            shape, size = (m, n_feat, n_bins), m * n_feat * n_bins
            cnt = np.bincount(key, minlength=size).reshape(shape)
            s = np.bincount(key, weights=np.repeat(y[rows], n_feat), minlength=size).reshape(shape)
            # Splitting after the last bin leaves the right side empty.
            ccnt = np.cumsum(cnt, axis=2)[:, :, :-1]
            csum = np.cumsum(s, axis=2)[:, :, :-1]
            rcnt = total_cnt[:, None, None] - ccnt
            valid = (ccnt >= msl) & (rcnt >= msl)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = csum**2 / ccnt + (total_sum[:, None, None] - csum) ** 2 / rcnt
            score = np.where(valid, score, -np.inf)
            best_bin = np.argmax(score, axis=2)
            parent_score = total_sum * total_sum / total_cnt
            gain = score.max(axis=2) - parent_score[:, None]
            best_feat = np.argmax(gain, axis=1)
            split = gain.max(axis=1) > self.min_gain
            frontier = []
            for i in np.flatnonzero(split):
                v, idx, _ = grow[i]
                f = best_feat[i]
                thr = int(best_bin[i, f])
                goes_left = X[idx, f] <= thr
                feature[v] = int(feats[f])
                threshold[v] = thr
                for side, child in ((left, idx[goes_left]), (right, idx[~goes_left])):
                    frontier.append(new_node(child))
                    side[v] = frontier[-1][0]
        self.feature = np.array(feature)
        self.threshold = np.array(threshold)
        self.left = np.array(left)
        self.right = np.array(right)
        self.value = np.array(value)
        return self

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        node_of = np.zeros(len(codes), dtype=np.int64)
        # Iteratively route all samples; depth is small so this loops
        # at most max_depth times over active samples.
        active = self.feature[node_of] >= 0
        while active.any():
            ai = np.where(active)[0]
            nd = node_of[ai]
            f = self.feature[nd]
            goes_left = codes[ai, f] <= self.threshold[nd]
            node_of[ai] = np.where(goes_left, self.left[nd], self.right[nd])
            active = self.feature[node_of] >= 0
        return self.value[node_of]


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
