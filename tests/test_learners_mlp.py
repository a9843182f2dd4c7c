"""Unit tests for the 3-layer MLP regressor."""
import numpy as np

from repro.core.learners import MLPRegressor
from repro.metrics import median_error_pct, pearson


def test_mlp_fits_loglinear(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(MLPRegressor, "epochs", 120)
    m = MLPRegressor().fit(X[:800], y[:800])
    assert median_error_pct(m.predict(X[800:]), y[800:]) < 40
    assert pearson(m.predict(X[800:]), y[800:]) > 0.85


def test_mlp_paper_hyperparams():
    m = MLPRegressor()
    assert m.hidden == 30 and m.l2 == 0.005


def test_mlp_deterministic(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(MLPRegressor, "epochs", 30)
    monkeypatch.setattr(MLPRegressor, "seed", 5)
    p1 = MLPRegressor().fit(X, y).predict(X)
    p2 = MLPRegressor().fit(X, y).predict(X)
    assert np.array_equal(p1, p2)


def test_mlp_predictions_positive_and_clipped(loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(MLPRegressor, "epochs", 30)
    m = MLPRegressor().fit(X, y)
    pred = m.predict(X * 50)
    assert (pred >= 0).all()
    assert pred.max() <= np.expm1(m.z_hi_) + 1e-6


def test_mlp_tiny_dataset(monkeypatch):
    X = np.random.default_rng(0).random((6, 4))
    y = np.abs(np.random.default_rng(1).normal(4, 1, 6))
    monkeypatch.setattr(MLPRegressor, "epochs", 50)
    m = MLPRegressor().fit(X, y)
    assert np.isfinite(m.predict(X)).all()


def test_mlp_learns_nonlinearity(monkeypatch):
    g = np.random.default_rng(2)
    X = g.random((800, 2))
    y = np.expm1(2 * np.abs(X[:, 0] - 0.5) + X[:, 1])  # V-shape: not linear
    monkeypatch.setattr(MLPRegressor, "epochs", 200)
    m = MLPRegressor().fit(X[:600], y[:600])
    assert median_error_pct(m.predict(X[600:]), y[600:]) < 30
