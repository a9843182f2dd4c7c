"""Tests for the Table 2/3 feature layer: the numpy features against
their formulas as SQL on DuckDB, and the §5.3 partition thetas the
features give the planner's cost curves."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import features
from repro.core.learners.linear import ElasticNet
from repro.optimizer.resource import fold_curves
from tests.banks import bank_of


def _log_frame(n=200, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "I": np.exp(g.normal(10, 2, n)),
            "B": np.exp(g.normal(11, 2, n)),
            "C": np.exp(g.normal(8, 2, n)),
            "L": g.uniform(40, 400, n),
            "P": g.integers(1, 500, n).astype(float),
            "in_hash": g.random(n),
            "pm": g.random(n),
            "cl": g.integers(1, 30, n).astype(float),
            "depth": g.integers(1, 12, n).astype(float),
        }
    )


def test_feature_names_counts():
    # 27 candidate features (paper: "25 to 30"), +2 context features.
    assert len(features.FEATURE_NAMES) == 27
    assert features.ALL_FEATURE_NAMES[-2:] == ["f_CL", "f_D"]


def test_feature_matrix_shape():
    pdf = _log_frame()
    assert features.feature_matrix(pdf).shape == (200, 27)
    assert features.feature_matrix(pdf, context=True).shape == (200, 29)


def test_feature_matrix_accepts_array_mapping():
    pdf = _log_frame(30, seed=2)
    cols = {k: pdf[k].to_numpy() for k in pdf.columns}
    for context in (False, True):
        np.testing.assert_array_equal(features.feature_matrix(cols, context=context),
                                      features.feature_matrix(pdf, context=context))


def test_feature_matrix_finite():
    pdf = _log_frame()
    pdf.loc[0, "I"] = 0.0
    pdf.loc[1, "C"] = 1.0
    assert np.isfinite(features.feature_matrix(pdf, context=True)).all()


def test_basic_features_are_identity():
    pdf = _log_frame(20)
    X = features.feature_matrix(pdf)
    assert np.allclose(X[:, 0], pdf["I"])
    assert np.allclose(X[:, 4], pdf["P"])
    assert np.allclose(X[:, 6], pdf["pm"])


def test_derived_feature_formulas_spotcheck():
    pdf = _log_frame(10)
    X = features.feature_matrix(pdf)
    names = features.FEATURE_NAMES
    assert np.allclose(X[:, names.index("f_IL_P")], pdf.I * pdf.L / pdf.P)
    assert np.allclose(X[:, names.index("f_logIlogC")],
                       np.log1p(pdf.I) * np.log1p(pdf.C))
    assert np.allclose(X[:, names.index("f_sqrtB")], np.sqrt(pdf.B))


# The reference: each feature's formula as SQL.
FEATURE_SQL = {
    "f_I": "I", "f_B": "B", "f_C": "C", "f_L": "L", "f_P": "P", "f_IN": "in_hash",
    "f_PM": "pm",
    "f_sqrtI": "sqrt(I)", "f_sqrtB": "sqrt(B)", "f_LI": "L * I", "f_LB": "L * B",
    "f_LlogB": "L * ln(1 + B)", "f_LlogI": "L * ln(1 + I)", "f_LlogC": "L * ln(1 + C)",
    "f_BC": "B * C", "f_IC": "I * C", "f_BlogC": "B * ln(1 + C)",
    "f_IlogC": "I * ln(1 + C)", "f_logIlogC": "ln(1 + I) * ln(1 + C)",
    "f_logBlogC": "ln(1 + B) * ln(1 + C)",
    "f_I_P": "I / P", "f_C_P": "C / P", "f_IL_P": "I * L / P", "f_CL_P": "C * L / P",
    "f_sqrtI_P": "sqrt(I) / P", "f_sqrtC_P": "sqrt(C) / P", "f_logI_P": "ln(1 + I) / P",
    "f_CL": "cl", "f_D": "depth",
}


def test_feature_matrix_matches_duckdb_sql():
    """Every Table 2/3 and context feature equals its formula evaluated
    as SQL on DuckDB."""
    assert list(FEATURE_SQL) == features.ALL_FEATURE_NAMES
    pdf = _log_frame(100, seed=3)
    con = duckdb.connect()
    con.register("t", pdf)
    select = ", ".join(f"CAST({sql} AS DOUBLE) AS {name}" for name, sql in FEATURE_SQL.items())
    got = con.execute(f"SELECT {select} FROM t").df()
    con.close()
    X = features.feature_matrix(pdf, context=True)
    for j, name in enumerate(features.ALL_FEATURE_NAMES):
        np.testing.assert_allclose(got[name].to_numpy(), X[:, j], rtol=1e-12, err_msg=name)


def _thetas(coef, i_card, c_card, row_len):
    """(θ_P, θ_C) of the cost curve of one operator whose only covering
    model has raw weights ``coef`` (27 of them: no context features)."""
    bank = bank_of(("Op-Subgraph", 1, coef, 0.0, -30.0, 30.0))
    cols = {"I": [i_card], "B": [1.0], "C": [c_card], "L": [row_len], "in_hash": [0.5],
            "pm": [0.5], "cl": [1], "depth": [1], "sig_sub": [1], "sig_approx": [2],
            "sig_opinput": [3], "op": ["Extract"]}
    cols = {k: np.array(v) for k, v in cols.items()}
    curves = fold_curves(bank.resolve(cols), cols)
    return float(curves.theta_p[0]), float(curves.theta_c[0])


def test_partition_thetas_from_known_weights():
    # Craft raw weights: only I*L/P and P non-zero.
    coef = np.zeros(len(features.FEATURE_NAMES))
    coef[features.FEATURE_NAMES.index("f_IL_P")] = 2.0
    coef[features.P_FEATURE_INDEX] = 0.5
    tp, tc = _thetas(coef, i_card=10.0, c_card=3.0, row_len=4.0)
    assert tp == pytest.approx(2.0 * 10 * 4)
    assert tc == pytest.approx(0.5)


def test_partition_thetas_all_inverse_features():
    coef = np.ones(len(features.FEATURE_NAMES))
    i, c, ln = 100.0, 50.0, 10.0
    tp, _ = _thetas(coef, i, c, ln)
    expected = (
        i + c + i * ln + c * ln + np.sqrt(i) + np.sqrt(c) + np.log1p(i)
    )
    assert tp == pytest.approx(expected)


def test_learned_thetas_recover_partition_response():
    """Fit on data with a genuine work/P + gamma*P response; the §5.3
    analytical optimum from the learned weights should land near the
    true optimum."""
    g = np.random.default_rng(5)
    n = 400
    pdf = _log_frame(n, seed=5)
    pdf["I"] = 1e6 * np.exp(g.normal(0, 0.2, n))
    pdf["C"] = pdf["I"] * 0.3
    pdf["L"] = 100.0
    pdf["P"] = np.exp(g.normal(np.log(60), 0.5, n)).round().clip(1)
    work = pdf.I * pdf.L / 1e7
    y = work / pdf.P + 0.03 * pdf.P
    en = ElasticNet(alpha=0.05).fit(features.feature_matrix(pdf), y.to_numpy())
    tp, tc = _thetas(en.raw_coef_, float(pdf.I.mean()), float(pdf.C.mean()), 100.0)
    assert tp > 0 and tc > 0
    p_star = np.sqrt(tp / tc)
    true_opt = np.sqrt((pdf.I.mean() * 100 / 1e7) / 0.03)
    assert 0.2 * true_opt < p_star < 5 * true_opt

