"""Unit tests for the histogram CART tree and its grower."""
import numpy as np
import pytest

from repro.core.learners.tree import DecisionTreeRegressor, grow, quantile_bin
from repro.metrics import median_error_pct


def test_quantile_bin_shapes(rng):
    X = rng.random((100, 3))
    codes, edges = quantile_bin(X)
    assert codes.shape == X.shape
    assert len(edges) == 3
    assert codes.max() < 64


def test_quantile_bin_constant_column(rng):
    X = np.column_stack([np.full(50, 3.0), rng.random(50)])
    codes, edges = quantile_bin(X)
    assert (codes[:, 0] == codes[0, 0]).all()


def test_quantile_bin_monotone(rng):
    X = rng.random((200, 1)) * 100
    codes, _ = quantile_bin(X)
    order = np.argsort(X[:, 0])
    assert (np.diff(codes[order, 0]) >= 0).all()


def test_single_split_recovered():
    # y depends on a single threshold — a depth-1 tree should find it.
    X = np.linspace(0, 1, 200).reshape(-1, 1)
    y = np.where(X[:, 0] < 0.5, 1.0, 9.0)
    codes, _ = quantile_bin(X)
    pred = grow(codes, y, max_depth=1, min_samples_leaf=2).predict_binned(codes)[0]
    assert np.allclose(pred[X[:, 0] < 0.49], 1.0, atol=0.2)
    assert np.allclose(pred[X[:, 0] > 0.51], 9.0, atol=0.2)


def test_depth_zero_is_mean():
    X = np.random.default_rng(0).random((50, 2))
    y = np.arange(50.0)
    codes, _ = quantile_bin(X)
    assert np.allclose(grow(codes, y, max_depth=0, min_samples_leaf=2).predict_binned(codes), y.mean())


def test_min_samples_leaf_respected():
    X = np.linspace(0, 1, 20).reshape(-1, 1)
    y = X[:, 0]
    codes, _ = quantile_bin(X)
    tree = grow(codes, y, max_depth=10, min_samples_leaf=8)
    # Count leaf populations by routing all samples.
    leaf_of = []
    for i in range(len(X)):
        node = 0
        while tree.feature[node] >= 0:
            node = (
                tree.left[node]
                if codes[i, tree.feature[node]] <= tree.threshold[node]
                else tree.right[node]
            )
        leaf_of.append(node)
    counts = np.bincount(leaf_of, minlength=len(tree.value))
    assert counts[counts > 0].min() >= 8


def test_tree_fits_nonlinear(loglinear_data):
    X, y = loglinear_data
    t = DecisionTreeRegressor(max_depth=15).fit(X[:800], y[:800])
    assert median_error_pct(t.predict(X[800:]), y[800:]) < 80


def test_tree_perfect_on_train_when_deep():
    g = np.random.default_rng(4)
    X = g.random((100, 3))
    y = np.abs(g.normal(5, 2, 100))
    t = DecisionTreeRegressor(max_depth=30, min_samples_leaf=1).fit(X, y)
    assert median_error_pct(t.predict(X), y) < 5


def test_tree_predict_unseen_values_clipped_into_bins(loglinear_data):
    X, y = loglinear_data
    t = DecisionTreeRegressor().fit(X, y)
    pred = t.predict(X * 1000)  # out-of-range values route to outer bins
    assert np.isfinite(pred).all()


def test_tree_deterministic(loglinear_data):
    X, y = loglinear_data
    p1 = DecisionTreeRegressor().fit(X, y).predict(X)
    p2 = DecisionTreeRegressor().fit(X, y).predict(X)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_tree_tiny_inputs(n):
    X = np.random.default_rng(n).random((n, 4))
    y = np.abs(np.random.default_rng(n + 1).normal(3, 1, n))
    t = DecisionTreeRegressor().fit(X, y)
    assert np.isfinite(t.predict(X)).all()
