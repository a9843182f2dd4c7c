"""Tests for the batched covariance-update elastic-net solver
(``ElasticNet.fit_groups``) and the family trainer and predictor that
read its results.

The reference is the per-group residual-update double loop the solver
replaced: one coordinate-descent fit per group, each a Python loop over
sweeps and features.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.features import FEATURE_NAMES, feature_matrix
from repro.core.learners.linear import ElasticNet, _standardize
from repro.core.models import (
    FAMILIES,
    FAMILY_BY_NAME,
    FAMILY_INDEX,
    MIN_OCCURRENCES,
    train_family_pandas,
)
from tests.banks import bank_of, find_row, reference_predict

_EPS = 1e-12


def reference_fit(X, y, alpha=1.0, l1_ratio=0.5, max_iter=300, tol=1e-6):
    """One group's elastic net by the residual-update double loop."""
    t = np.log1p(np.maximum(np.asarray(y, dtype=float), 0.0))
    Xs, mu, sd = _standardize(np.asarray(X, dtype=float))
    n, d = Xs.shape
    intercept = float(t.mean())
    r = t - intercept
    w = np.zeros(d)
    l1 = alpha * 0.02 * l1_ratio
    l2 = alpha * 0.02 * (1.0 - l1_ratio)
    col_sq = (Xs * Xs).sum(axis=0) / n
    for it in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] < _EPS:
                continue
            rho = (Xs[:, j] @ r) / n + col_sq[j] * w[j]
            wj = np.sign(rho) * max(abs(rho) - l1, 0.0) / (col_sq[j] + l2)
            delta = wj - w[j]
            if delta != 0.0:
                r -= delta * Xs[:, j]
                max_delta = max(max_delta, abs(delta))
                w[j] = wj
        shift = r.mean()
        intercept += shift
        r -= shift
        if max_delta < tol:
            break
    return {
        "coef": w,
        "intercept": intercept,
        "raw_coef": w / sd,
        "raw_intercept": intercept - float((w * mu / sd).sum()),
        "z_lo": float(t.min()) - 0.7,
        "z_hi": float(t.max()) + 0.7,
        "n_iter": it,
    }


def reference_predict_family(bank, family, pdf):
    """``ModelBank.predict_family`` as a per-key mask loop."""
    spec = FAMILY_BY_NAME[family]
    X = feature_matrix(pdf, context=spec.context)
    keys = pdf[spec.key_col].to_numpy()
    out = np.full(len(pdf), np.nan)
    for key in pd.unique(keys):
        m = find_row(bank, family, key)
        if m is not None:
            mask = keys == key
            out[mask] = reference_predict(bank, m, X[mask])
    return out


def assert_close(a, b, rel=1e-10):
    """``a`` equals ``b`` within ``rel`` of b's largest magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.abs(a - b).max(initial=0.0) <= rel * max(1.0, np.abs(b).max(initial=0.0))


def _group(g, n, d=12, constant_col=None):
    X = g.random((n, d)) * g.integers(1, 1000, d)
    if constant_col is not None:
        X[:, constant_col] = 3.7
    z = (X / X.max(axis=0)) @ g.normal(0, 1, d) + 4.0 + g.normal(0, 0.3, n)
    return X, np.expm1(np.clip(z, 0, 12))


def _batch(groups):
    X = np.vstack([x for x, _ in groups])
    y = np.concatenate([y for _, y in groups])
    bounds = np.concatenate([[0], np.cumsum([len(y) for _, y in groups])])
    return X, y, bounds


@pytest.fixture(scope="module")
def groups():
    g = np.random.default_rng(11)
    return [
        _group(g, 60),
        _group(g, 30, constant_col=2),
        _group(g, MIN_OCCURRENCES),
        _group(g, 1),
        _group(g, 200),
        _group(g, 12, constant_col=0),
    ]


@pytest.mark.parametrize("max_iter", [300, 4])
def test_batched_fit_matches_per_group_loop(groups, max_iter, monkeypatch):
    X, y, bounds = _batch(groups)
    monkeypatch.setattr(ElasticNet, "max_iter", max_iter)
    fits = ElasticNet().fit_groups(X, y, bounds)
    for k, (Xk, yk) in enumerate(groups):
        ref = reference_fit(Xk, yk, max_iter=max_iter)
        assert_close(fits.coef[k], ref["coef"])
        assert_close(fits.raw_coef[k], ref["raw_coef"])
        assert_close(fits.intercept[k], ref["intercept"])
        assert_close(fits.raw_intercept[k], ref["raw_intercept"])
        assert fits.z_lo[k] == ref["z_lo"] and fits.z_hi[k] == ref["z_hi"]
        assert fits.n_iter[k] == ref["n_iter"]
    # The batch holds groups that converge and groups that stop at max_iter.
    assert (fits.n_iter == max_iter).any() and (fits.n_iter < max_iter).any()


def test_constant_and_one_row_groups(groups):
    X, y, bounds = _batch(groups)
    fits = ElasticNet().fit_groups(X, y, bounds)
    assert fits.coef[1, 2] == 0.0 and fits.sd[1, 2] == 1.0  # constant column
    assert (fits.coef[3] == 0).all() and fits.n_iter[3] == 1  # one row
    assert fits.raw_intercept[3] == pytest.approx(np.log1p(groups[3][1][0]))


def test_group_result_independent_of_batch(groups):
    """A group fit alone and among others gives bit-identical results,
    also when the others leave the batch earlier or later."""
    X, y, bounds = _batch(groups)
    en = ElasticNet()
    together = en.fit_groups(X, y, bounds)
    assert len(set(together.n_iter.tolist())) > 2  # groups stop at different sweeps
    for k, (Xk, yk) in enumerate(groups):
        alone = en.fit_groups(Xk, yk, np.array([0, len(yk)]))
        for field in ("coef", "intercept", "raw_coef", "raw_intercept", "z_lo", "z_hi",
                      "n_iter"):
            assert np.array_equal(getattr(alone, field)[0], getattr(together, field)[k])
    # Reversing the batch order changes nothing either.
    rev = en.fit_groups(*_batch(groups[::-1]))
    assert np.array_equal(rev.coef[::-1], together.coef)
    assert np.array_equal(rev.n_iter[::-1], together.n_iter)


@pytest.mark.parametrize("max_iter", [300, 4])
def test_group_padded_among_wider_groups_matches_alone(groups, max_iter, monkeypatch):
    """Narrow groups solved with wider ones (their moments zero-padded)
    give the bits they give alone, at their own width."""
    g = np.random.default_rng(3)
    wide = [_group(g, 80, d=15), _group(g, 25, d=15, constant_col=13)]
    monkeypatch.setattr(ElasticNet, "max_iter", max_iter)
    en = ElasticNet()
    narrow_fits, wide_fits = en.fit_batches([_batch(groups), _batch(wide)])
    fields = ("coef", "intercept", "mu", "sd", "raw_coef", "raw_intercept", "z_lo", "z_hi",
              "n_iter")
    for k, (Xk, yk) in enumerate(groups):
        alone = en.fit_groups(Xk, yk, np.array([0, len(yk)]))
        for field in fields:
            assert np.array_equal(getattr(alone, field)[0], getattr(narrow_fits, field)[k])
    assert narrow_fits.coef.shape == (len(groups), 12)
    wide_alone = en.fit_groups(*_batch(wide))
    for field in fields:
        assert np.array_equal(getattr(wide_alone, field), getattr(wide_fits, field))


def test_fit_is_the_one_group_case(groups):
    Xk, yk = groups[0]
    en = ElasticNet().fit(Xk, yk)
    fits = ElasticNet().fit_groups(Xk, yk, np.array([0, len(yk)]))
    assert np.array_equal(en.coef_, fits.coef[0])
    assert en.raw_intercept_ == fits.raw_intercept[0]
    assert en.n_iter_ == fits.n_iter[0]


def test_empty_batch():
    fits = ElasticNet().fit_groups(np.zeros((0, 3)), np.zeros(0), np.array([0]))
    assert fits.coef.shape == (0, 3) and fits.n_iter.shape == (0,)


def test_family_training_matches_per_group_loop(tiny):
    _, ops, _ = tiny
    train = ops[ops.day <= 2]
    for spec in FAMILIES:
        fam = train_family_pandas(train, spec)
        expected = {key: grp for key, grp in train.groupby(spec.key_col)
                    if len(grp) >= spec.min_occurrences}
        assert fam.key.tolist() == list(expected)  # one row per group, in key order
        assert (fam.family == FAMILY_INDEX[spec.name]).all()
        for m, grp in enumerate(expected.values()):
            X = feature_matrix(grp, context=spec.context)
            d = X.shape[1]
            ref = reference_fit(X, grp["actual"].to_numpy())
            assert fam.n_train[m] == len(grp)
            assert_close(fam.std_coef[m, :d], ref["coef"])
            assert_close(fam.raw_coef[m, :d], ref["raw_coef"])
            # Weights are padded to the context columns with zeros.
            assert not fam.std_coef[m, d:].any() and not fam.raw_coef[m, d:].any()
            assert_close(fam.raw_intercept[m], ref["raw_intercept"])
            assert (fam.z_lo[m], fam.z_hi[m]) == (ref["z_lo"], ref["z_hi"])
            assert 1 <= fam.n_iter[m] <= 300


def test_predict_family_matches_per_key_loop(tiny, tiny_bank):
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    for spec in FAMILIES:
        got = tiny_bank.predict_family(spec.name, test)
        ref = reference_predict_family(tiny_bank, spec.name, test)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        ok = ~np.isnan(ref)
        assert ok.any()
        np.testing.assert_allclose(got[ok], ref[ok], rtol=1e-12, atol=0)
    assert np.isnan(tiny_bank.predict_family("Op-Subgraph", test)).any()


def test_predict_family_clips_and_handles_no_cover():
    d = len(FEATURE_NAMES)
    bank = bank_of(("Op-Subgraph", 1, np.full(d, 1.0), 0.0, 0.5, 2.0),
                   ("Op-Subgraph", 2, np.full(d, -1.0), 0.0, 0.5, 2.0))
    pdf = pd.DataFrame({"I": [10.0, 10.0, 10.0], "B": 10.0, "C": 10.0, "L": 10.0, "P": 2.0,
                        "in_hash": 0, "pm": 0.0, "sig_sub": [1, 2, 3]})
    got = bank.predict_family("Op-Subgraph", pdf)
    assert got[0] == pytest.approx(np.expm1(2.0)) and got[1] == pytest.approx(np.expm1(0.5))
    assert np.isnan(got[2])
    assert np.isnan(bank.predict_family("Op-Subgraph", pdf.assign(sig_sub=7))).all()
