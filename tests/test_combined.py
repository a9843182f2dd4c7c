"""Tests for the combined meta-ensemble model (§4.3)."""
import numpy as np

from repro.core.combined import CombinedModel, meta_features
from repro.core.learners import ElasticNet, FastTreeRegressor
from repro.metrics import median_error_pct


def test_full_coverage(tiny, tiny_bank, tiny_combined):
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    pred = tiny_combined.predict(tiny_bank, test)
    assert np.isnan(pred).sum() == 0  # 100% coverage by construction


def test_combined_beats_operator_model(tiny, tiny_bank, tiny_combined):
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    a = test.actual.to_numpy()
    comb = tiny_combined.predict(tiny_bank, test)
    op_pred = tiny_bank.predict_family("Operator", test)
    assert median_error_pct(comb, a) < median_error_pct(op_pred, a)


def test_combined_close_to_subgraph_on_covered(tiny, tiny_bank, tiny_combined):
    """Table 5: combined accuracy is comparable to the specialized
    models where those are available."""
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    a = test.actual.to_numpy()
    sub = tiny_bank.predict_family("Op-Subgraph", test)
    m = ~np.isnan(sub)
    comb = tiny_combined.predict(tiny_bank, test)
    assert median_error_pct(comb[m], a[m]) < 2.5 * median_error_pct(sub[m], a[m]) + 5


def test_meta_features_shape(tiny, tiny_bank):
    _, ops, _ = tiny
    scored = tiny_bank.predict_all(ops[ops.day == 3].head(30))
    X = meta_features(scored)
    # 4 predictions + 4 coverage flags + I,B,C + I/P,B/P,C/P + P = 15.
    assert X.shape == (30, 15)
    assert np.isfinite(X).all()


def test_meta_features_impute_with_operator(tiny, tiny_bank):
    _, ops, _ = tiny
    scored = tiny_bank.predict_all(ops[ops.day == 3].head(200))
    X = meta_features(scored)
    missing = np.isnan(scored["pred_sig_sub"].to_numpy())
    if missing.any():
        op_pred = scored["pred_op"].to_numpy()
        assert np.allclose(X[missing, 0], op_pred[missing])
        assert (X[missing, 1] == 0).all()  # coverage flag off


def test_pluggable_meta_learner(tiny, tiny_bank):
    _, ops, _ = tiny
    comb = CombinedModel(learner_factory=ElasticNet).fit(
        tiny_bank, ops[ops.day == 2]
    )
    pred = comb.predict(tiny_bank, ops[ops.day == 3].head(50))
    assert np.isfinite(pred).all()


def test_unseen_operator_falls_back(tiny, tiny_bank, tiny_combined):
    _, ops, _ = tiny
    test = ops[ops.day == 3].head(20).copy()
    # Pretend these rows belong to an operator with no combined model.
    test["op"] = "Extract"
    tiny_combined_models = dict(tiny_combined.models)
    try:
        tiny_combined.models.pop("Extract", None)
        pred = tiny_combined.predict(tiny_bank, test)
        assert np.isfinite(pred[~np.isnan(pred)]).all()
    finally:
        tiny_combined.models = tiny_combined_models


def test_meta_models_equal_per_operator_fits(tiny, tiny_bank, tiny_combined):
    """The FastTrees fit together (one growth per boosting round) are the
    ones each operator's own fit gives."""
    _, ops, _ = tiny
    scored = tiny_bank.predict_all(ops[ops.day == 2])
    test = tiny_bank.predict_all(ops[ops.day == 3])
    assert len(tiny_combined.models) > 1
    for op, grp in scored.groupby("op"):
        solo = FastTreeRegressor().fit(meta_features(grp), grp["actual"].to_numpy(dtype=float))
        X = meta_features(test)
        assert np.array_equal(tiny_combined.models[str(op)].predict_log(X), solo.predict_log(X))
