"""Tests for the model families, the bank's look-ups + Spark-parallel
training (§3-§5.1)."""
import pickle
from dataclasses import fields

import numpy as np
import pandas as pd

from repro.core.features import ALL_FEATURE_NAMES, FEATURE_NAMES
from repro.core.models import (
    FAMILIES,
    FAMILY_BY_NAME,
    FAMILY_INDEX,
    MIN_OCCURRENCES,
    ModelBank,
    train_bank,
    train_family_pandas,
    train_family_spark,
)
from repro.metrics import median_error_pct
from tests.banks import bank_of


def family_keys(bank, family):
    return set(bank.key[bank.family == FAMILY_INDEX[family]].tolist())


def test_family_specs():
    names = [f.name for f in FAMILIES]
    assert names == ["Op-Subgraph", "Op-SubgraphApprox", "Op-Input", "Operator"]
    assert FAMILY_BY_NAME["Operator"].min_occurrences == 1
    assert FAMILY_BY_NAME["Op-Subgraph"].min_occurrences == MIN_OCCURRENCES


def test_min_occurrences_threshold(tiny, tiny_bank):
    _, ops, _ = tiny
    train = ops[ops.day <= 2]
    counts = train.groupby("sig_sub").size()
    modeled = family_keys(tiny_bank, "Op-Subgraph")
    for sig, cnt in counts.items():
        if cnt >= MIN_OCCURRENCES:
            assert sig in modeled
        else:
            assert sig not in modeled


def test_operator_family_full_coverage(tiny, tiny_bank):
    _, ops, _ = tiny
    ops_in_train = set(ops[ops.day <= 2].op)
    assert ops_in_train == family_keys(tiny_bank, "Operator")


def test_coverage_ladder(tiny, tiny_bank):
    """Specialized -> general must increase coverage (§4.2, Table 5)."""
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    cov = []
    for spec in FAMILIES:
        pred = tiny_bank.predict_family(spec.name, test)
        cov.append(np.mean(~np.isnan(pred)))
    assert cov[0] <= cov[1] + 0.02
    assert cov[1] <= cov[2] + 0.02
    assert cov[3] == 1.0


def test_accuracy_better_than_default(tiny, tiny_bank):
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    pred = tiny_bank.predict_family("Op-Subgraph", test)
    m = ~np.isnan(pred)
    a = test.actual.to_numpy()
    assert median_error_pct(pred[m], a[m]) < median_error_pct(
        test.cost_default.to_numpy()[m], a[m]
    )


def test_predict_all_columns(tiny, tiny_bank):
    _, ops, _ = tiny
    scored = tiny_bank.predict_all(ops[ops.day == 3].head(50))
    for spec in FAMILIES:
        assert f"pred_{spec.key_col}" in scored.columns


def test_pandas_predictions_deterministic(tiny, tiny_bank):
    _, ops, _ = tiny
    test = ops[ops.day == 3].head(100)
    p1 = tiny_bank.predict_family("Op-Input", test)
    p2 = tiny_bank.predict_family("Op-Input", test)
    assert np.array_equal(p1, p2, equal_nan=True)


def test_train_bank_is_the_four_family_banks(tiny, tiny_bank):
    """One solve for the whole bank gives each family's own solve's bits."""
    _, ops, _ = tiny
    ref = ModelBank.concat([train_family_pandas(ops[ops.day <= 2], spec) for spec in FAMILIES])
    for f in fields(ModelBank):
        a, b = getattr(tiny_bank, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_spark_training_matches_pandas(spark, tiny):
    """The Spark-parallel trainer must produce the same models as the
    driver-side trainer (same groups, same elastic-net fits)."""
    _, ops, _ = tiny
    train = ops[ops.day == 1]
    spec = FAMILY_BY_NAME["Op-Input"]
    local = train_family_pandas(train, spec)
    sdf = spark.createDataFrame(
        train[["I", "B", "C", "L", "P", "in_hash", "pm", "cl", "depth", "actual",
               "sig_sub", "sig_approx", "sig_opinput", "op"]]
    )
    dist = train_family_spark(sdf, spec)
    assert len(dist) == len(local) > 0
    assert dist.key.tolist() == local.key.tolist()  # same keys, same row order
    for field in ("family", "n_train", "n_iter", "z_lo", "z_hi"):
        np.testing.assert_array_equal(getattr(dist, field), getattr(local, field), field)
    for field in ("raw_coef", "raw_intercept", "std_coef"):
        np.testing.assert_allclose(getattr(dist, field), getattr(local, field),
                                   rtol=1e-8, atol=1e-8, err_msg=field)


def test_train_bank_spark_end_to_end(spark, tiny):
    _, ops, _ = tiny
    bank = train_bank(ops[ops.day == 1].head(400), spark=spark)
    assert bank.n_models("Operator") > 0
    test = ops[ops.day == 3].head(50)
    pred = bank.predict_family("Operator", test)
    assert np.isfinite(pred[~np.isnan(pred)]).all()


def _frame(n=1, **cols):
    """Operator rows with moderate statistics and the given columns."""
    base = {"I": 100.0, "B": 100.0, "C": 10.0, "L": 50.0, "P": 4.0, "in_hash": 0.5,
            "pm": 0.5, "cl": 2, "depth": 1, "sig_sub": -1, "sig_approx": -1,
            "sig_opinput": -1, "op": "Extract"}
    return pd.DataFrame({**base, **cols}, index=range(n))


def _resolve(bank, pdf):
    return bank.resolve({c: pdf[c].to_numpy() for c in pdf.columns})


def test_linear_model_predict_clip(tiny, tiny_bank):
    """Far outside the training envelope a prediction is the model's
    clip bound, ``expm1(z_hi)``; the bound is the one ``resolve`` hands
    the planner."""
    _, ops, _ = tiny
    pdf = _frame(len(set(ops.op)), op=sorted(set(ops.op)), I=1e12, B=1e12, C=1e12, L=1e12)
    pred = tiny_bank.predict_family("Operator", pdf)
    _, _, z_lo, z_hi, covered = _resolve(tiny_bank, pdf)
    assert covered.all()
    assert (pred <= np.expm1(z_hi) + 1).all()
    assert ((pred == np.expm1(z_hi)) | (pred == np.expm1(z_lo))).any()


def test_unseen_key_is_uncovered():
    bank = bank_of(("Op-Subgraph", 1, np.zeros(len(FEATURE_NAMES)), 1.0, -30.0, 30.0),
                   ("Operator", "Extract", np.zeros(len(ALL_FEATURE_NAMES)), 2.0, -30.0, 30.0))
    pdf = _frame(3, sig_sub=[1, 2, 3], op=["Extract", "Extract", "Sort"])
    got = bank.predict_family("Op-Subgraph", pdf)
    assert got[0] == np.expm1(1.0) and np.isnan(got[1:]).all()
    # The look-up falls through to the operator model, then to nothing.
    _, intercept, _, _, covered = _resolve(bank, pdf)
    assert covered.tolist() == [True, True, False]
    assert intercept.tolist() == [1.0, 2.0, 0.0]


def test_same_key_in_two_families():
    zeros = np.zeros(len(FEATURE_NAMES))
    bank = bank_of(("Op-Subgraph", 7, zeros, 1.0, -30.0, 30.0),
                   ("Op-SubgraphApprox", 7, zeros, 2.0, -30.0, 30.0),
                   ("Op-Input", 7, np.zeros(len(ALL_FEATURE_NAMES)), 3.0, -30.0, 30.0))
    pdf = _frame(2, sig_sub=[7, 8], sig_approx=7, sig_opinput=7)
    assert bank.predict_family("Op-Subgraph", pdf)[0] == np.expm1(1.0)
    assert (bank.predict_family("Op-SubgraphApprox", pdf) == np.expm1(2.0)).all()
    assert (bank.predict_family("Op-Input", pdf) == np.expm1(3.0)).all()
    assert _resolve(bank, pdf)[1].tolist() == [1.0, 2.0]
    assert [bank.n_models(f.name) for f in FAMILIES] == [1, 1, 1, 0]


def test_int_signatures_next_to_str_operator_keys():
    """int64 signature keys and str operator keys share the table; a key
    matches only its own family, whatever its type or value."""
    sig = np.int64(2**62 + 3)
    bank = bank_of(("Op-Subgraph", int(sig), np.zeros(len(FEATURE_NAMES)), 1.0, -30.0, 30.0),
                   ("Operator", "7", np.zeros(len(ALL_FEATURE_NAMES)), 2.0, -30.0, 30.0),
                   ("Operator", "Sort", np.zeros(len(ALL_FEATURE_NAMES)), 3.0, -30.0, 30.0))
    assert bank.key.tolist() == [int(sig), "7", "Sort"]
    pdf = _frame(3, sig_sub=np.array([sig, 7, 7], dtype=np.int64), op=["Sort", "7", "Sort"])
    assert pdf["sig_sub"].dtype == np.int64
    got = bank.predict_family("Op-Subgraph", pdf)
    assert got[0] == np.expm1(1.0) and np.isnan(got[1:]).all()
    assert bank.predict_family("Operator", pdf).tolist() == list(np.expm1([3.0, 2.0, 3.0]))
    assert _resolve(bank, pdf)[1].tolist() == [1.0, 2.0, 3.0]


def test_empty_family():
    bank = bank_of(("Operator", "Extract", np.zeros(len(ALL_FEATURE_NAMES)), 2.0, -30.0, 30.0))
    pdf = _frame(4, sig_sub=[1, 2, 3, 4])
    assert bank.n_models("Op-Subgraph") == 0
    assert np.isnan(bank.predict_family("Op-Subgraph", pdf)).all()
    assert np.isnan(bank.predict_family("Op-Subgraph", pdf.iloc[:0])).shape == (0,)
    coef, intercept, _, _, covered = _resolve(bank, pdf)
    assert covered.all() and (intercept == 2.0).all() and coef.shape == (4, len(ALL_FEATURE_NAMES))


def test_bank_pickle_round_trip(tiny, tiny_bank):
    _, ops, _ = tiny
    test = ops[ops.day == 3]
    copy = pickle.loads(pickle.dumps(tiny_bank))
    assert len(copy) == len(tiny_bank)
    for spec in FAMILIES:
        np.testing.assert_array_equal(copy.predict_family(spec.name, test),
                                      tiny_bank.predict_family(spec.name, test))
    for got, want in zip(_resolve(copy, test), _resolve(tiny_bank, test)):
        np.testing.assert_array_equal(got, want)
