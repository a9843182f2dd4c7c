"""Unit tests for the elastic net and pluggable-loss linear models."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learners.linear import ElasticNet, GDLinear, _standardize
from repro.metrics import median_error_pct, pearson


def test_standardize_zero_mean_unit_var(rng):
    X = rng.random((200, 4)) * 10 + 3
    Xs, mu, sd = _standardize(X)
    assert np.allclose(Xs.mean(axis=0), 0, atol=1e-9)
    assert np.allclose(Xs.std(axis=0), 1, atol=1e-9)


def test_standardize_constant_column_safe(rng):
    X = np.column_stack([np.ones(50), rng.random(50)])
    Xs, mu, sd = _standardize(X)
    assert np.isfinite(Xs).all()
    assert sd[0] == 1.0  # guarded, not zero


def test_elastic_net_recovers_loglinear(loglinear_data):
    X, y = loglinear_data
    en = ElasticNet(alpha=0.01).fit(X[:800], y[:800])
    pred = en.predict(X[800:])
    assert median_error_pct(pred, y[800:]) < 15
    assert pearson(pred, y[800:]) > 0.95


def test_elastic_net_near_ols_when_unregularized():
    g = np.random.default_rng(0)
    X = g.random((500, 3))
    w_true = np.array([1.0, -0.5, 0.25])
    t = X @ w_true + 0.3
    y = np.expm1(t)
    en = ElasticNet(alpha=1e-8).fit(X, y)
    assert np.allclose(en.raw_coef_, w_true, atol=0.02)
    assert en.raw_intercept_ == pytest.approx(0.3, abs=0.02)


def test_elastic_net_l1_produces_sparsity():
    g = np.random.default_rng(1)
    X = g.random((100, 20))
    y = np.expm1(X[:, 0] * 2 + 1)  # only feature 0 matters
    en = ElasticNet(alpha=2.0).fit(X, y)
    nz = (en.coef_ != 0).sum()
    assert nz < 10  # automatic feature selection (§3.4)
    assert en.coef_[0] != 0


def test_raw_coef_equivalent_to_standardized(loglinear_data):
    X, y = loglinear_data
    en = ElasticNet().fit(X, y)
    z_std = ((X - en.mu_) / en.sd_) @ en.coef_ + en.intercept_
    z_raw = X @ en.raw_coef_ + en.raw_intercept_
    assert np.allclose(z_std, z_raw, atol=1e-8)


def test_predictions_positive(loglinear_data):
    X, y = loglinear_data
    en = ElasticNet().fit(X, y)
    assert (en.predict(X) >= 0).all()  # log transform guarantees positivity


def test_extrapolation_clipped(loglinear_data):
    X, y = loglinear_data
    en = ElasticNet().fit(X, y)
    X_far = X * 100  # far outside the training envelope
    pred = en.predict(X_far)
    assert pred.max() <= np.expm1(en.z_hi_) + 1e-6


def test_clip_bounds_track_target_range(loglinear_data):
    X, y = loglinear_data
    en = ElasticNet().fit(X, y)
    t = np.log1p(y)
    assert en.z_lo_ == pytest.approx(t.min() - 0.7)
    assert en.z_hi_ == pytest.approx(t.max() + 0.7)


def test_elastic_net_constant_target():
    X = np.random.default_rng(3).random((30, 5))
    y = np.full(30, 7.0)
    en = ElasticNet().fit(X, y)
    assert en.predict(X) == pytest.approx(np.full(30, 7.0), rel=0.01)


def test_elastic_net_single_sample_degenerate():
    en = ElasticNet().fit(np.ones((1, 3)), np.array([5.0]))
    assert en.predict(np.ones((1, 3)))[0] == pytest.approx(5.0, rel=0.01)


@pytest.mark.parametrize("loss", ["msle", "mse", "mae", "medae"])
def test_gdlinear_fits_each_loss(loss, loglinear_data, monkeypatch):
    X, y = loglinear_data
    monkeypatch.setattr(GDLinear, "epochs", 250)
    m = GDLinear(loss=loss).fit(X[:800], y[:800])
    err = median_error_pct(m.predict(X[800:]), y[800:])
    assert err < 60, f"{loss} failed to fit: {err}%"


def test_gdlinear_rejects_unknown_loss():
    with pytest.raises(ValueError):
        GDLinear(loss="huber")


def test_gdlinear_msle_close_to_elastic_net(loglinear_data):
    X, y = loglinear_data
    gd = GDLinear(loss="msle").fit(X, y)
    en = ElasticNet(alpha=1e-6).fit(X, y)
    # Both minimize the same objective (modulo tiny regularization).
    assert median_error_pct(gd.predict(X), en.predict(X)) < 10


def test_msle_beats_raw_losses_on_heavy_tail(monkeypatch):
    # Reproduce the Table 1 mechanism: heavy-tailed targets make
    # raw-scale losses chase the big instances.
    g = np.random.default_rng(7)
    n = 600
    X = g.random((n, 5))
    z = X @ np.array([2.0, 1.0, -1.0, 0.5, 3.0]) + g.normal(0, 0.2, n)
    y = np.expm1(z * 2)  # spans many orders of magnitude
    errs = {}
    monkeypatch.setattr(GDLinear, "epochs", 300)
    for loss in ("msle", "mse", "medae"):
        m = GDLinear(loss=loss).fit(X[:400], y[:400])
        errs[loss] = median_error_pct(m.predict(X[400:]), y[400:])
    assert errs["msle"] < errs["mse"]
    assert errs["msle"] < errs["medae"]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=10, max_value=60), st.integers(min_value=2, max_value=6))
def test_elastic_net_never_nan(n, d):
    g = np.random.default_rng(n * 7 + d)
    X = g.random((n, d)) * g.integers(1, 1000)
    y = np.abs(g.normal(10, 100, n))
    en = ElasticNet().fit(X, y)
    assert np.isfinite(en.predict(X)).all()
