"""Histogram-based CART regression trees, grown as one forest table.

Every tree model here — the paper's "Decision tree: depth = 15" (§3.4),
the random forest's 20 trees and each FastTree (MART gradient boosting)
round — is a :class:`Forest`: the node arrays of all of a model's trees
plus each tree's root. A decision tree and a boosting round are forests
of one.

Features are quantile-binned once per fit (max 64 bins). :func:`grow`
grows every tree of a forest together, one depth level at a time, like
the "hist" method of XGBoost (Chen & Guestrin, KDD 2016) and LightGBM
(Ke et al., NeurIPS 2017): one pass over the level's samples accumulates
a ``(slot, feature, bin)`` histogram of counts and target sums, where a
slot is one ``(tree, node)`` pair, and every split of every node of
every tree at that depth is scored from it at once. A level costs
O(n × features) plus O(slots × features × bins), with a number of numpy
calls that grows with neither the feature count nor the tree count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_BINS = 64
# A node splits only when its best split improves the score by more
# than this.
MIN_GAIN = 1e-12


def quantile_bin(X: np.ndarray):
    """Per-feature quantile bin edges and binned codes.

    Returns ``(codes, edges)`` where ``codes[i, j]`` is the bin index of
    sample i on feature j and ``edges[j]`` are the interior thresholds
    (length = n_bins_j - 1). Repeated quantiles collapse, so a constant
    column gets no empty bins.
    """
    qs = np.linspace(0, 1, _MAX_BINS + 1)[1:-1]
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


@dataclass
class Forest:
    """The regression trees of one model, as flat node arrays.

    Node ``i`` splits on ``feature[i]`` (samples with ``code <=
    threshold[i]`` go to ``left[i]``, the others to ``right[i]``) and
    predicts ``value[i]``, the mean target of its training samples. A
    leaf has ``feature = -1`` and points ``left`` and ``right`` at
    itself, so routing a sample ``depth`` times from ``roots[t]`` ends at
    its leaf in tree ``t``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int  # the deepest leaf's depth

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Each tree's leaf value for each sample, shape ``(trees, n)``."""
        return self.leaf_values(codes, np.repeat(self.roots[:, None], len(codes), axis=1))

    def leaf_values(self, codes: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The value of the leaf each sample reaches from ``node``: an
        array of start nodes whose last axis runs over the samples."""
        rows = np.arange(len(codes))
        for _ in range(self.depth):
            goes_left = codes[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return self.value[node]

    def take(self, trees) -> "Forest":
        """The trees ``trees`` (indices into ``roots``) as a forest of
        their own, in that order. Each tree keeps its nodes' relative
        order, renumbered from its first node, and the forest's depth is
        its own deepest leaf's: a tree taken from a forest that
        :func:`grow` grew with others has the arrays of that tree grown
        alone."""
        trees = np.asarray(trees)
        owner = np.full(len(self.value), -1)
        level = np.zeros(len(self.value), dtype=int)
        owner[self.roots] = np.arange(len(self.roots))
        nodes = self.roots
        for d in range(1, self.depth + 1):
            nodes = nodes[self.feature[nodes] >= 0]
            kids = np.concatenate([self.left[nodes], self.right[nodes]])
            owner[kids], level[kids] = np.tile(owner[nodes], 2), d
            nodes = kids
        rank = np.full(len(self.roots), len(trees))
        rank[trees] = np.arange(len(trees))
        keep = np.flatnonzero(rank[owner] < len(trees))
        keep = keep[np.argsort(rank[owner[keep]], kind="stable")]
        new = np.zeros(len(self.value), dtype=np.int64)
        new[keep] = np.arange(len(keep))
        return Forest(self.feature[keep], self.threshold[keep], new[self.left[keep]],
                      new[self.right[keep]], self.value[keep], new[self.roots[trees]],
                      int(level[keep].max(initial=0)))

    @classmethod
    def concat(cls, forests: list["Forest"]) -> "Forest":
        """One forest holding the trees of ``forests``, in order."""
        offsets = np.cumsum([0] + [len(f.value) for f in forests[:-1]])

        def joined(name, shift):
            return np.concatenate([getattr(f, name) + (o if shift else 0)
                                   for f, o in zip(forests, offsets)])

        return cls(joined("feature", False), joined("threshold", False),
                   joined("left", True), joined("right", True), joined("value", False),
                   joined("roots", True), max(f.depth for f in forests))


def grow(
    codes: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    bounds: np.ndarray | None = None,
    feats: np.ndarray | None = None,
) -> Forest:
    """Grow one regression tree per row block, all one level at a time.

    Tree ``t`` fits rows ``bounds[t]:bounds[t + 1]`` of the binned
    ``codes`` and target ``y`` (default: one tree over every row), and
    may split only on the features ``feats[t]`` (default: all), in that
    order. Each level scores every split of every splittable node from
    one ``(slot, feature, bin)`` histogram of counts and target sums,
    with one slot per ``(tree, node)``. A slot's samples stay in
    ascending row order, so each bin's samples are summed in the order a
    node-by-node scan of that tree alone would sum them, and a node's
    own total comes from its samples: every score is computed exactly as
    the scan would compute it. The best bin of each feature is the first
    maximum of the score, and the best feature the first maximum of the
    gain over the parent, in ``feats[t]`` order: subtracting the parent
    score can round two different scores to one gain, so the order
    matters. The bin count is pooled over the trees; the extra trailing
    bins of a tree are empty, so splitting after them leaves the right
    side empty and they are never chosen.
    """
    n, d = codes.shape
    bounds = np.array([0, n]) if bounds is None else np.asarray(bounds)
    n_trees = len(bounds) - 1
    feats = np.tile(np.arange(d), (n_trees, 1)) if feats is None else np.asarray(feats)
    tree_of_row = np.repeat(np.arange(n_trees), np.diff(bounds))
    X = np.take_along_axis(codes, feats[tree_of_row], axis=1)  # each row on its tree's features
    n_feat = X.shape[1]
    n_bins = int(X.max()) + 1 if X.size else 1
    msl = min_samples_leaf
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(idx):
        """Append a leaf for samples ``idx``; return ``(node, idx, total)``.
        Its value, total over count, is ``y[idx].mean()`` bit for bit."""
        total = y[idx].sum()
        node = len(value)
        feature.append(-1)
        threshold.append(-1)
        left.append(node)
        right.append(node)
        value.append(float(total / len(idx)))
        return node, idx, total

    frontier = [new_node(np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    depth = 0
    # A single bin everywhere leaves nothing to split on.
    for _ in range(max_depth if n_bins > 1 else 0):
        grown = [nd for nd in frontier if len(nd[1]) >= 2 * msl]
        if not grown:
            break
        m = len(grown)
        rows = np.concatenate([idx for _, idx, _ in grown])
        total_cnt = np.array([len(idx) for _, idx, _ in grown])
        total_sum = np.array([total for _, _, total in grown])
        slot = np.repeat(np.arange(m), total_cnt)
        key = ((slot[:, None] * n_feat + np.arange(n_feat)) * n_bins + X[rows]).ravel()
        shape, size = (m, n_feat, n_bins), m * n_feat * n_bins
        # Only the cumulative counts and sums over the bins are kept, not
        # the histograms: with many trees in one growth, a level's arrays
        # are large. Splitting after the last bin leaves the right side
        # empty.
        ccnt = np.cumsum(np.bincount(key, minlength=size).reshape(shape), axis=2)[:, :, :-1]
        csum = np.cumsum(np.bincount(key, weights=np.repeat(y[rows], n_feat),
                                     minlength=size).reshape(shape), axis=2)[:, :, :-1]
        rcnt = total_cnt[:, None, None] - ccnt
        valid = (ccnt >= msl) & (rcnt >= msl)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = csum**2 / ccnt + (total_sum[:, None, None] - csum) ** 2 / rcnt
        score[~valid] = -np.inf
        best_bin = np.argmax(score, axis=2)
        parent_score = total_sum * total_sum / total_cnt
        gain = score.max(axis=2) - parent_score[:, None]
        best_feat = np.argmax(gain, axis=1)
        split = gain.max(axis=1) > MIN_GAIN
        frontier = []
        for i in np.flatnonzero(split):
            v, idx, _ = grown[i]
            f = best_feat[i]
            thr = int(best_bin[i, f])
            goes_left = X[idx, f] <= thr
            feature[v] = int(feats[tree_of_row[idx[0]], f])
            threshold[v] = thr
            for side, child in ((left, idx[goes_left]), (right, idx[~goes_left])):
                frontier.append(new_node(child))
                side[v] = frontier[-1][0]
        depth += bool(frontier)
    return Forest(np.array(feature), np.array(threshold), np.array(left), np.array(right),
                  np.array(value), np.arange(n_trees), depth)


class DecisionTreeRegressor:
    """CART with the paper's §3.4 hyper-parameter (depth = 15).

    Fits on the log1p-transformed target (MSLE objective, like every
    CLEO model) and predicts on the raw scale.
    """

    max_depth = 15
    min_samples_leaf = 2

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        t = np.log1p(np.maximum(np.asarray(y, dtype=float), 0.0))
        codes, self.edges_ = quantile_bin(np.asarray(X, dtype=float))
        self.forest_ = grow(codes, t, self.max_depth, self.min_samples_leaf)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.forest_.predict_binned(bin_codes(X, self.edges_))[0]
        return np.expm1(np.clip(z, -30, 30))
