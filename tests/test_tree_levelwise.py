"""Level-wise forest growth against the node-by-node recursive reference.

``grow`` grows every tree of a forest one depth level at a time from a
``(slot, feature, bin)`` histogram, one slot per ``(tree, node)``.
``RecursiveTree`` below is the recursive growth of one tree it replaced,
kept as the reference: every split, node value and prediction must be
bit-identical. Node numbering differs (breadth-first over all trees vs
depth-first preorder), so trees are compared per depth.
"""
import numpy as np
import pytest

from repro.core.learners import tree as tree_mod
from repro.core.learners.ensemble import FastTreeRegressor, RandomForestRegressor
from repro.core.learners.tree import (
    DecisionTreeRegressor,
    Forest,
    bin_codes,
    grow,
    quantile_bin,
)


class RecursiveTree:
    """Reference: grows node by node, scanning features one at a time."""

    def __init__(self, max_depth: int, min_samples_leaf: int, min_gain: float = 1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain

    def fit_binned(self, codes, y, feat_idx=None):
        n, d = codes.shape
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        feats = np.arange(d) if feat_idx is None else feat_idx
        self._grow(codes, y, np.arange(n), 0, feats)
        return self

    def _new_node(self, val):
        self.feature.append(-1)
        self.threshold.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(val)
        return len(self.value) - 1

    def _grow(self, codes, y, idx, depth, feats):
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
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._grow(codes, y, idx[mask], depth + 1, feats)
        self.right[node] = self._grow(codes, y, idx[~mask], depth + 1, feats)
        return node

    def predict_binned(self, codes):
        feature, threshold = np.asarray(self.feature), np.asarray(self.threshold)
        left, right, value = np.asarray(self.left), np.asarray(self.right), np.asarray(self.value)
        node_of = np.zeros(len(codes), dtype=np.int64)
        active = feature[node_of] >= 0
        while active.any():
            ai = np.where(active)[0]
            nd = node_of[ai]
            goes_left = codes[ai, feature[nd]] <= threshold[nd]
            node_of[ai] = np.where(goes_left, left[nd], right[nd])
            active = feature[node_of] >= 0
        return value[node_of]


def _by_depth(t, root=0):
    """Sorted ``(feature, threshold, value)`` of each depth's nodes of the
    tree at ``root``."""
    feature, threshold = np.asarray(t.feature), np.asarray(t.threshold)
    left, right, value = np.asarray(t.left), np.asarray(t.right), np.asarray(t.value)
    levels, level = [], [int(root)]
    while level:
        levels.append(sorted((int(feature[v]), int(threshold[v]), float(value[v])) for v in level))
        level = [int(c) for v in level if feature[v] >= 0 for c in (left[v], right[v])]
    return levels


def _data(n, d=6, seed=0, offset=0.0):
    g = np.random.default_rng(seed)
    X = g.random((n, d))
    y = offset + X @ g.normal(0, 1, d) + np.sin(6 * X[:, 0]) + g.normal(0, 0.3, n)
    return X, y


def _unseen(codes):
    """Code combinations never seen in training."""
    return np.random.default_rng(1).integers(0, codes.max() + 1, codes.shape).astype(codes.dtype)


def assert_same_tree(X, y, max_depth, min_samples_leaf, feat_idx=None):
    codes, _ = quantile_bin(X)
    ref = RecursiveTree(max_depth, min_samples_leaf, tree_mod.MIN_GAIN).fit_binned(codes, y,
                                                                                 feat_idx)
    feats = None if feat_idx is None else [feat_idx]
    new = grow(codes, y, max_depth, min_samples_leaf, feats=feats)
    assert len(new.value) == len(ref.value)
    assert _by_depth(new) == _by_depth(ref)
    assert np.array_equal(new.predict_binned(codes)[0], ref.predict_binned(codes))
    other = _unseen(codes)
    assert np.array_equal(new.predict_binned(other)[0], ref.predict_binned(other))
    return new


def assert_same_forest(codes, y, bounds, feats, max_depth, min_samples_leaf):
    """Every tree of one ``grow`` call equals the reference grown on its
    own rows and features alone."""
    forest = grow(codes, y, max_depth, min_samples_leaf, bounds=bounds, feats=feats)
    other = _unseen(codes)
    pred, pred_other = forest.predict_binned(codes), forest.predict_binned(other)
    assert pred.shape == (len(feats), len(codes))
    for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        ref = RecursiveTree(max_depth, min_samples_leaf).fit_binned(
            codes[lo:hi], y[lo:hi], feats[t])
        assert _by_depth(forest, forest.roots[t]) == _by_depth(ref)
        assert np.array_equal(pred[t], ref.predict_binned(codes))
        assert np.array_equal(pred_other[t], ref.predict_binned(other))
    return forest


@pytest.mark.parametrize("min_samples_leaf", [1, 3, 8])
@pytest.mark.parametrize("max_depth", [0, 1, 5, 15, 30])
def test_depth_and_leaf_size_grid(max_depth, min_samples_leaf):
    X, y = _data(400, seed=max_depth + 10 * min_samples_leaf)
    assert_same_tree(X, y, max_depth, min_samples_leaf)


@pytest.mark.parametrize("n", [1, 2, 5, 3000])
def test_sample_counts(n):
    X, y = _data(n, d=15, seed=n)
    t = assert_same_tree(X, y, 5, 3)
    assert (len(t.value) > 1) == (n >= 6)


def test_deep_tree_on_many_samples():
    X, y = _data(3000, d=8, seed=3)
    t = assert_same_tree(X, y, 15, 2)
    assert len(t.value) > 500


def test_constant_column():
    X, y = _data(300, seed=4)
    X[:, 2] = 7.0
    t = assert_same_tree(X, y, 6, 2)
    assert 2 not in set(t.feature.tolist())


def test_all_columns_constant_gives_a_single_leaf():
    X = np.ones((50, 3))
    y = np.arange(50.0)
    t = assert_same_tree(X, y, 5, 2)
    assert len(t.value) == 1 and t.value[0] == y.mean()


def test_duplicated_column_breaks_tie_to_earlier_feature():
    X, y = _data(500, d=4, seed=5)
    X[:, 3] = X[:, 0]  # identical codes, so identical scores on 0 and 3
    t = assert_same_tree(X, y, 5, 2)
    used = set(t.feature.tolist())
    assert 0 in used and 3 not in used
    t = assert_same_tree(X, y, 5, 2, feat_idx=np.array([3, 1, 0, 2]))
    used = set(t.feature.tolist())
    assert 3 in used and 0 not in used


def test_unsorted_feature_subset():
    X, y = _data(1000, d=10, seed=6)
    for seed in range(5):
        feats = np.random.default_rng(seed).choice(10, size=3, replace=False)
        t = assert_same_tree(X, y, 5, 2, feat_idx=feats)
        assert set(t.feature.tolist()) - {-1} <= set(feats.tolist())


def test_node_whose_max_code_is_below_the_global_max():
    # Feature 1 reaches its upper half only where feature 0 is high, so
    # after the root splits on feature 0 the low child sees only low codes
    # of feature 1, and must still split on them.
    g = np.random.default_rng(7)
    x0 = g.random(800)
    x1 = g.random(800) * np.where(x0 > 0.5, 2.0, 1.0)
    X = np.column_stack([x0, x1])
    y = 5 * (x0 > 0.5) + np.sin(8 * x1) + g.normal(0, 0.1, 800)
    codes, _ = quantile_bin(X)
    t = assert_same_tree(X, y, 4, 2)
    assert t.feature[0] == 0
    low = t.left[0]
    assert t.feature[low] == 1
    assert codes[codes[:, 0] <= t.threshold[0], 1].max() < codes[:, 1].max()


def test_min_gain_binding(monkeypatch):
    X, y = _data(600, seed=8)
    full = assert_same_tree(X, y, 8, 2)
    monkeypatch.setattr(tree_mod, "MIN_GAIN", 5.0)
    pruned = assert_same_tree(X, y, 8, 2)
    assert 1 < len(pruned.value) < len(full.value)


def test_target_far_from_zero():
    # A large offset makes scores sensitive to the last bit of a node's
    # total, so totals must be summed exactly as the reference sums them.
    X, y = _data(2000, d=6, seed=9, offset=1e6)
    assert_same_tree(X, y, 8, 2)
    assert_same_tree(X, y, 5, 3)


def test_rounding_ties_break_like_the_scan():
    # Mathematically equal scores computed along different summation
    # paths differ in the last bit, and subtracting the parent score can
    # round two such scores to one gain. The scan takes each feature's
    # first best *score*, then the first feature with the best *gain*.
    # Here features 0 and 1 offer the same partition in different bin
    # orders: feature 1 scores higher by rounding, but the gains tie, so
    # feature 0 wins.
    y = np.array([
        -0.4035147659536207, -0.19282530316136728, -1.265291973804833,
        4.1004935520712245, 3.5480388085232684, 1.3806327645070813,
    ])
    codes = np.array([[0, 2], [1, 1], [2, 0], [3, 3], [4, 4], [5, 5]], dtype=np.int16)
    ref = RecursiveTree(1, 1).fit_binned(codes, y)
    t = grow(codes, y, 1, 1)
    assert ref.feature[0] == t.feature[0] == 0
    # A mirrored target: splitting after bin 0 and after bin 12 are the
    # same partition mirrored. Bin 12 scores higher by rounding and wins,
    # although both have the same gain.
    half = np.array([
        -1.7096167640183537, 0.9432952243429817, 1.203859077881047,
        2.076780854900195, -0.2626195397660918, 0.38940648153553026,
        -0.3427063373804111,
    ])
    y = np.concatenate([half, half[::-1]])
    codes = np.arange(14, dtype=np.int16)[:, None]
    ref = RecursiveTree(1, 1).fit_binned(codes, y)
    t = grow(codes, y, 1, 1)
    assert ref.threshold[0] == t.threshold[0] == 12
    assert np.array_equal(t.predict_binned(codes)[0], ref.predict_binned(codes))


@pytest.mark.parametrize("n,d", [(4, 3), (37, 5), (300, 8), (1000, 15), (4000, 10), (2000, 3)])
def test_forest_matches_reference_per_tree(n, d):
    # A random forest's draws: 20 bootstraps and sqrt(d)-feature subsets.
    X, y = _data(n, d=d, seed=n + d)
    codes, _ = quantile_bin(X)
    g = np.random.default_rng(d)
    boots = [g.integers(0, n, n) for _ in range(20)]
    feats = np.array([g.choice(d, size=max(1, int(np.sqrt(d))), replace=False)
                      for _ in range(20)])
    rows = np.concatenate(boots)
    assert_same_forest(codes[rows], y[rows], np.arange(21) * n, feats, 5, 2)


def test_forest_pools_bin_counts_over_trees():
    # The trees see different maximum bin codes: low-cardinality columns,
    # a continuous one, and rows cut to its low range. The pooled bin
    # count gives the first trees empty trailing bins, never chosen.
    g = np.random.default_rng(12)
    n = 600
    X = np.column_stack([g.integers(0, 2, n), g.integers(0, 5, n), g.random(n)]).astype(float)
    y = 3 * X[:, 0] + X[:, 1] + np.sin(6 * X[:, 2]) + g.normal(0, 0.2, n)
    codes, _ = quantile_bin(X)
    low = np.flatnonzero(X[:, 2] < 0.3)
    blocks = [np.arange(n), g.integers(0, n, n), np.arange(n), low]
    feats = np.array([[0, 1], [1, 0], [2, 0], [2, 1]])
    rows = np.concatenate(blocks)
    bounds = np.cumsum([0] + [len(b) for b in blocks])
    max_codes = [int(codes[b][:, f].max()) for b, f in zip(blocks, feats)]
    assert len(set(max_codes)) == 3 and max(max_codes) == int(codes.max())
    forest = assert_same_forest(codes[rows], y[rows], bounds, feats, 6, 2)
    assert (forest.feature >= 0).sum() > 4 * 3  # every tree splits


def assert_forest_equal(a, b):
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.depth == b.depth


def test_take_round_trips_a_multi_tree_grow():
    # Four trees of different depths: one of 5 rows (too few to split at
    # min_samples_leaf 3) and one on a constant target (no gain).
    X, y = _data(500, d=5, seed=21)
    y[400:] = 1.0
    codes, _ = quantile_bin(X)
    bounds = np.array([0, 200, 205, 400, 500])
    forest = grow(codes, y, 6, 3, bounds=bounds)
    trees = [forest.take([t]) for t in range(4)]
    for tree, lo, hi in zip(trees, bounds[:-1], bounds[1:]):
        assert_forest_equal(tree, grow(codes[lo:hi], y[lo:hi], 6, 3))
    assert trees[1].depth == trees[3].depth == 0 < trees[0].depth
    # Taking every tree regroups the nodes tree by tree: the same trees,
    # the same predictions.
    whole = forest.take(np.arange(4))
    assert_forest_equal(whole, Forest.concat(trees))
    assert np.array_equal(whole.predict_binned(codes), forest.predict_binned(codes))
    # And back, in any order.
    assert_forest_equal(whole.take([2]), trees[2])
    assert_forest_equal(whole.take([3, 0]), Forest.concat([trees[3], trees[0]]))


def _log1p_target(y):
    return np.log1p(np.maximum(y, 0.0))


def _raw_scale(z):
    return np.expm1(np.clip(z, -30, 30))


def reference_decision_tree(X, y, X_test):
    m = DecisionTreeRegressor()
    codes, edges = quantile_bin(X)
    tree = RecursiveTree(m.max_depth, m.min_samples_leaf).fit_binned(codes, _log1p_target(y))
    return _raw_scale(tree.predict_binned(bin_codes(X_test, edges)))


def reference_random_forest(X, y, X_test):
    """Bagged reference trees from the forest's own draws, in its RNG order."""
    m = RandomForestRegressor()
    t = _log1p_target(y)
    codes, edges = quantile_bin(X)
    test = bin_codes(X_test, edges)
    n, d = codes.shape
    rng = np.random.default_rng(m.seed)
    preds = []
    for _ in range(m.n_estimators):
        boot = rng.integers(0, n, n)
        feats = rng.choice(d, size=max(1, int(np.sqrt(d))), replace=False)
        tree = RecursiveTree(m.max_depth, m.min_samples_leaf).fit_binned(
            codes[boot], t[boot], feats)
        preds.append(tree.predict_binned(test))
    return _raw_scale(np.mean(preds, axis=0))


def reference_fasttree(X, y, X_test):
    """Boosted reference trees on FastTree's own subsamples, added in
    round order."""
    m = FastTreeRegressor()
    t = _log1p_target(y)
    codes, edges = quantile_bin(X)
    test = bin_codes(X_test, edges)
    n = len(t)
    rng = np.random.default_rng(m.seed)
    pred, z = np.full(n, t.mean()), np.full(len(test), t.mean())
    k = max(1, int(m.subsample * n))
    for _ in range(m.n_estimators):
        sub = rng.choice(n, size=k, replace=False) if k < n else np.arange(n)
        tree = RecursiveTree(m.max_depth, m.min_samples_leaf).fit_binned(
            codes[sub], t[sub] - pred[sub])
        pred += m.learning_rate * tree.predict_binned(codes)
        z += m.learning_rate * tree.predict_binned(test)
    return _raw_scale(z)


@pytest.mark.parametrize(
    "factory,reference",
    [
        (FastTreeRegressor, reference_fasttree),
        (RandomForestRegressor, reference_random_forest),
        (DecisionTreeRegressor, reference_decision_tree),
    ],
    ids=["fasttree", "random_forest", "decision_tree"],
)
def test_learners_match_reference(factory, reference, loglinear_data):
    X, y = loglinear_data
    assert np.array_equal(factory().fit(X[:900], y[:900]).predict(X), reference(X[:900], y[:900], X))
    # Tiny data: 4 rows, so a node of 3 or fewer samples cannot split.
    assert np.array_equal(factory().fit(X[:4], y[:4]).predict(X), reference(X[:4], y[:4], X))


def test_fitted_tree_is_arrays():
    X, y = _data(200, seed=11)
    codes, _ = quantile_bin(X)
    f = grow(codes, y, 5, 2, bounds=np.array([0, 120, 200]), feats=np.array([[0, 1], [2, 3]]))
    assert isinstance(f, Forest)
    for name in ("feature", "threshold", "left", "right", "value"):
        a = getattr(f, name)
        assert isinstance(a, np.ndarray) and a.shape == (len(f.value),)
    assert f.value.dtype == float
    assert f.roots.tolist() == [0, 1]
    assert 1 <= f.depth <= 5
    # Leaves point at themselves, so routing past a leaf stays put.
    leaf = f.feature < 0
    nodes = np.arange(len(f.value))
    assert (f.left[leaf] == nodes[leaf]).all() and (f.right[leaf] == nodes[leaf]).all()
    assert (f.left[~leaf] > nodes[~leaf]).all() and (f.right[~leaf] > nodes[~leaf]).all()
