"""Unit tests for random forest and FastTree (MART gradient boosting)."""
import numpy as np
import pytest

from repro.core.learners import FastTreeRegressor, RandomForestRegressor
from repro.metrics import median_error_pct, pearson


def test_fasttree_fits(loglinear_data):
    X, y = loglinear_data
    m = FastTreeRegressor().fit(X[:800], y[:800])
    assert median_error_pct(m.predict(X[800:]), y[800:]) < 60
    assert pearson(m.predict(X[800:]), y[800:]) > 0.7


def test_fasttree_residual_fitting_improves_with_stages(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(FastTreeRegressor, "n_estimators", 1)
    few = FastTreeRegressor().fit(X, y)
    monkeypatch.setattr(FastTreeRegressor, "n_estimators", 20)
    many = FastTreeRegressor().fit(X, y)
    assert median_error_pct(many.predict(X), y) < median_error_pct(few.predict(X), y)


def test_fasttree_paper_hyperparams():
    m = FastTreeRegressor()
    assert m.n_estimators == 20 and m.max_depth == 5 and m.subsample == 0.9


def test_fasttree_deterministic(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(FastTreeRegressor, "seed", 3)
    p1 = FastTreeRegressor().fit(X, y).predict(X)
    p2 = FastTreeRegressor().fit(X, y).predict(X)
    assert np.array_equal(p1, p2)


def test_fasttree_seed_changes_subsamples(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(FastTreeRegressor, "seed", 1)
    p1 = FastTreeRegressor().fit(X, y).predict(X)
    monkeypatch.setattr(FastTreeRegressor, "seed", 2)
    p2 = FastTreeRegressor().fit(X, y).predict(X)
    assert not np.array_equal(p1, p2)


def test_fasttree_predict_log_consistent(loglinear_data):
    X, y = loglinear_data
    m = FastTreeRegressor().fit(X, y)
    assert np.allclose(np.expm1(m.predict_log(X)), m.predict(X), rtol=1e-9)


def test_fit_many_matches_solo_fits(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(FastTreeRegressor, "n_estimators", 7)
    monkeypatch.setattr(FastTreeRegressor, "seed", 4)
    # Among them: a model whose features are all constant (one bin each),
    # and one with fewer than 2 * min_samples_leaf rows.
    Xs = [X[:300], np.full((40, X.shape[1]), 2.5), X[300:305], X[305:]]
    ys = [y[:300], y[300:340], y[300:305], y[305:]]
    assert len(ys[2]) < 2 * FastTreeRegressor.min_samples_leaf
    proto = FastTreeRegressor()
    many = proto.fit_many(Xs, ys)
    for Xk, yk, m in zip(Xs, ys, many):
        solo = FastTreeRegressor().fit(Xk, yk)
        assert (m.n_estimators, m.seed, m.base_) == (7, 4, solo.base_)
        assert all(np.array_equal(a, b) for a, b in zip(m.edges_, solo.edges_))
        for name in ("feature", "threshold", "left", "right", "value", "roots"):
            a, b = getattr(m.forest_, name), getattr(solo.forest_, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert m.forest_.depth == solo.forest_.depth
        assert np.array_equal(m.predict_log(X), solo.predict_log(X))
    assert many[1].forest_.depth == many[2].forest_.depth == 0 < many[0].forest_.depth
    assert proto.fit_many([], []) == []


def test_forest_fits(loglinear_data):
    X, y = loglinear_data
    m = RandomForestRegressor().fit(X[:800], y[:800])
    assert pearson(m.predict(X[800:]), y[800:]) > 0.6


def test_forest_paper_hyperparams():
    m = RandomForestRegressor()
    assert m.n_estimators == 20 and m.max_depth == 5


def test_forest_averaging_smooths(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(RandomForestRegressor, "n_estimators", 1)
    single = RandomForestRegressor().fit(X, y)
    monkeypatch.setattr(RandomForestRegressor, "n_estimators", 20)
    full = RandomForestRegressor().fit(X, y)
    # Ensemble should not be worse than a single bagged tree.
    assert median_error_pct(full.predict(X), y) <= median_error_pct(
        single.predict(X), y
    ) * 1.5


def test_forest_positive_predictions(loglinear_data):
    X, y = loglinear_data
    m = RandomForestRegressor().fit(X, y)
    assert (m.predict(X) >= 0).all()


@pytest.mark.parametrize("cls", [FastTreeRegressor, RandomForestRegressor])
def test_ensembles_handle_tiny_data(cls):
    X = np.random.default_rng(0).random((4, 3))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    m = cls().fit(X, y)
    assert np.isfinite(m.predict(X)).all()
