"""Tests for resource-context and partition exploration (§5.2-§5.3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.features import (
    ALL_FEATURE_NAMES,
    FEATURE_NAMES,
    P_FEATURE_INDEX,
    feature_matrix,
)
from repro.core.models import ModelBank
from repro.optimizer import resource as res
from repro.scope import simulator as sim
from tests.banks import bank_of, find_covering, reference_predict
from tests.test_plan import _reference_identity


def test_geometric_samples_sequence(monkeypatch):
    # x_{i+1} = ceil(x_i + x_i/s) with s=1: 1, 2, 4, 8, ...
    monkeypatch.setattr(res, "MAX_P", 100)
    assert res.geometric_samples(1.0) == [1, 2, 4, 8, 16, 32, 64]


def test_geometric_samples_s_controls_density(monkeypatch):
    monkeypatch.setattr(res, "MAX_P", 1000)
    dense = res.geometric_samples(10.0)
    sparse = res.geometric_samples(1.0)
    assert len(dense) > len(sparse)


def test_geometric_samples_n_hits_target():
    for n in (5, 10, 20):
        s = res.geometric_samples_n(n)
        assert len(s) <= n
        assert len(s) >= n - 2
        assert s[0] == 1 and s[-1] <= res.MAX_P


def test_uniform_samples_span():
    s = res.uniform_samples(10)
    assert s[0] == 1 and s[-1] == res.MAX_P


def test_random_samples_deterministic(monkeypatch):
    monkeypatch.setattr(res, "RANDOM_SAMPLES_SEED", 1)
    seed1 = res.random_samples(8)
    assert seed1 == res.random_samples(8)
    monkeypatch.setattr(res, "RANDOM_SAMPLES_SEED", 2)
    assert seed1 != res.random_samples(8)


def _operator_model(coef_overrides: dict, intercept=0.0) -> tuple:
    # Operator family uses context features (+2 cols).
    coef = np.zeros(len(ALL_FEATURE_NAMES))
    for name, v in coef_overrides.items():
        coef[ALL_FEATURE_NAMES.index(name)] = v
    return ("Operator", "Extract", coef, intercept, -30.0, 30.0)


def _bank_with_operator_model(coef_overrides: dict, intercept=0.0) -> ModelBank:
    return bank_of(_operator_model(coef_overrides, intercept))


def _row(p=10):
    return {
        "I": 1e6, "B": 1e6, "C": 1e5, "L": 100.0, "P": p, "in_hash": 0.5,
        "pm": 0.5, "cl": 3, "depth": 2, "sig_sub": 1, "sig_approx": 2,
        "sig_opinput": 3, "op": "Extract",
    }


def _curves(bank, rows):
    """Cost curves of operators given as :func:`_row`-style dicts."""
    cols = {k: np.array([r[k] for r in rows]) for k in rows[0]}
    return res.fold_curves(bank.resolve(cols), cols)


def reference_costs(bank, rows):
    """Per-operator predicted costs through the feature matrix: the
    covering model, found by a scan of the bank, on a one-row frame per
    operator."""
    out = []
    for row in rows:
        found = find_covering(bank, row)
        if found is None:
            out.append(0.0)
            continue
        m, spec = found
        X = feature_matrix(pd.DataFrame([row]), context=spec.context)
        out.append(float(reference_predict(bank, m, X)[0]))
    return np.array(out)


def plan_rows(nodes, rows, stats, pm):
    """Feature-log rows of a plan's operators (the layout of the training
    log): each node's operator, identity and partition count, with the
    estimated statistics ``stats`` of its table row in ``rows``."""
    return [
        {"I": stats.est_in[r], "B": stats.est_base[r], "C": stats.est_out[r],
         "L": stats.row_len[r], "P": n.partitions, "pm": pm, "op": n.op,
         **_reference_identity(n)}
        for n, r in zip(nodes, rows, strict=True)
    ]


def test_resolve_model_cascade_order():
    """A subgraph model wins over the operator model (§5.1 look-up order)."""
    operator = _operator_model({"f_CL": 0.1, "f_P": 1e-3})
    row = _row()
    curves = _curves(bank_of(operator), [row])
    # The operator model reads the context features: a = 0.1 * CL.
    assert curves.covered[0] and curves.a[0] == pytest.approx(0.3)
    assert curves.theta_c[0] == 1e-3
    sub = ("Op-Subgraph", row["sig_sub"], np.zeros(len(FEATURE_NAMES)), 1.0, -30.0, 30.0)
    for bank in (bank_of(operator, sub), bank_of(sub, operator)):
        curves = _curves(bank, [row])
        assert curves.covered[0] and curves.a[0] == 1.0 and curves.theta_c[0] == 0.0


def test_resolve_model_none_when_empty():
    coef, intercept, z_lo, z_hi, covered = bank_of().resolve(
        {k: np.array([v]) for k, v in _row().items()})
    assert coef.shape == (1, len(ALL_FEATURE_NAMES)) and not coef.any()
    assert not covered[0] and intercept[0] == z_lo[0] == z_hi[0] == 0.0
    curves = _curves(bank_of(), [_row()])
    assert not curves.covered[0] and curves.a[0] == 0.0


def test_predict_costs_counts_lookups():
    bank = _bank_with_operator_model({})
    counter = res.LookupCounter()
    res.predict_costs_at(_curves(bank, [_row()]), np.array([1.0, 2.0, 4.0]), counter)
    assert counter.lookups == 3


def test_uncovered_operator_prices_zero_without_lookups():
    bank = _bank_with_operator_model({"f_P": 1e-3}, intercept=1.0)
    ctx = _curves(bank, [_row(), {**_row(), "op": "Sort"}])
    assert ctx.covered.tolist() == [True, False]
    counter = res.LookupCounter()
    costs = res.predict_costs_at(ctx, np.array([1.0, 50.0, 3000.0]), counter)
    assert (costs[0] > 0).all() and (costs[1] == 0).all()
    assert counter.lookups == 3  # the covered operator only
    res.optimize_stage_analytical(ctx, counter)
    assert counter.lookups == 4


def test_curves_match_feature_matrix_predictions():
    """Curve costs equal the reference predictor on the feature matrix,
    for models with and without context features, at counts where the
    log-space clip binds at both ends."""
    g = np.random.default_rng(3)
    rows = [
        {"I": float(np.exp(g.normal(12, 0.3))), "B": float(np.exp(g.normal(13, 0.3))),
         "C": float(np.exp(g.normal(10, 0.3))), "L": float(g.uniform(40, 400)),
         "in_hash": float(g.random()), "pm": float(g.random()),
         "cl": int(g.integers(1, 20)), "depth": int(g.integers(1, 8)),
         "sig_sub": i, "sig_approx": -1, "sig_opinput": -1,
         "op": "Extract" if i % 2 else "Sort"}
        for i in range(8)
    ]
    X = feature_matrix(pd.DataFrame(rows).assign(P=1.0), context=True)
    # Weights that make every feature's term of order 0.1, plus a
    # partition response of a few units in log space.
    scale = 1.0 / (np.abs(X).mean(axis=0) * X.shape[1])
    il_p = FEATURE_NAMES.index("f_IL_P")
    models = []
    for i in range(0, 8, 2):  # even rows: Op-Subgraph, no context features
        coef = g.normal(0, 1, len(FEATURE_NAMES)) * scale[:len(FEATURE_NAMES)]
        coef[il_p] = -4.0 / X[:, il_p].mean()
        coef[P_FEATURE_INDEX] = 2e-3
        models.append(("Op-Subgraph", i, coef, 5.0, 3.0, 8.0))
    coef = g.normal(0, 1, len(ALL_FEATURE_NAMES)) * scale  # Operator, with context
    coef[il_p] = 10.0 / X[:, il_p].mean()
    coef[P_FEATURE_INDEX] = 1e-3
    bank = bank_of(*models, ("Operator", "Extract", coef, 1.0, 2.0, 9.0))
    ps = np.array([1.0, 2.0, 7.0, 60.0, 500.0, 3000.0])
    got = res.predict_costs_at(_curves(bank, rows), ps, res.LookupCounter())
    want = np.column_stack([reference_costs(bank, [{**r, "P": p} for r in rows]) for p in ps])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # The clip binds at both ends for both kinds of model.
    for lo, hi, sl in ((3.0, 8.0, slice(0, 8, 2)), (2.0, 9.0, slice(1, 8, 2))):
        assert (got[sl] == np.expm1(lo)).any() and (got[sl] == np.expm1(hi)).any()


def test_analytical_case_interior_optimum():
    """theta_P > 0 and theta_C > 0 -> P* = sqrt(tP/tC) (§5.3 case iii)."""
    bank = _bank_with_operator_model({"f_IL_P": 1e-8, "f_P": 1e-3})
    counter = res.LookupCounter()
    p = res.optimize_stage_analytical(_curves(bank, [_row()]), counter)
    tp = 1e-8 * 1e6 * 100
    expected = int(round(np.sqrt(tp / 1e-3)))
    assert p == pytest.approx(expected, abs=1)
    assert counter.lookups == 1


def test_analytical_case_max_partitions():
    bank = _bank_with_operator_model({"f_IL_P": 1e-8, "f_P": -1e-3})
    ctx = _curves(bank, [_row()])
    assert res.optimize_stage_analytical(ctx, res.LookupCounter()) == res.MAX_P


def test_analytical_case_min_partitions():
    bank = _bank_with_operator_model({"f_IL_P": -1e-8, "f_P": 1e-3})
    ctx = _curves(bank, [_row()])
    assert res.optimize_stage_analytical(ctx, res.LookupCounter()) == 1


def test_analytical_degenerate_returns_one():
    bank = _bank_with_operator_model({})
    ctx = _curves(bank, [_row()])
    assert res.optimize_stage_analytical(ctx, res.LookupCounter()) == 1


def test_sampling_finds_model_minimum():
    """With a true U-shaped predicted cost, dense sampling must find a
    near-optimal count."""
    bank = _bank_with_operator_model({"f_IL_P": 1e-8, "f_P": 1e-3})
    ctx = _curves(bank, [_row()])
    counter = res.LookupCounter()
    p = res.optimize_stage_sampling(ctx, list(range(1, res.MAX_P, 10)), counter)
    analytical = res.optimize_stage_analytical(ctx, res.LookupCounter())
    assert abs(p - analytical) <= 15


def test_stage_costs_sum_over_operators():
    bank = _bank_with_operator_model({}, intercept=1.0)
    counter = res.LookupCounter()
    costs = res.stage_costs_at(_curves(bank, [_row(), _row()]), np.array([10.0]), counter)
    single = res.predict_costs_at(_curves(bank, [_row()]), np.array([10.0]),
                                  res.LookupCounter())
    assert costs[0] == pytest.approx(2 * single[0, 0])
    assert counter.lookups == 2


def test_plan_cost_curves_from_plan(tiny, tiny_bank):
    """The curves of an executed plan's rows (``table_context``,
    ``row_curves``), gathered to its operators, price each operator at
    its count as the reference predictor does on its tree's log rows."""
    cl, _, _ = tiny
    tpl = cl.templates[0]
    pm, bc, bl = cl.instance_inputs(tpl, 1, 0)
    plan = tpl.executed()
    batch = sim.RngBatch(sim.instance_seeds(plan.seed_keys, ("t", 1)))
    inst = sim.instantiate_plan(plan.plans, plan.draw_keys, cl.world, bc, bl, pm, iter(batch))
    context = res.table_context(plan.plans.table)
    curves = res.row_curves(tiny_bank.resolve(context), context, inst.stats, pm)
    p = np.array(inst.partitions, dtype=float)[:, None]
    got = res.predict_costs_at(curves[np.array(plan.plans.rows)], p, res.LookupCounter())[:, 0]
    nodes = plan.tree(0, inst.partitions)
    want = reference_costs(tiny_bank, plan_rows(nodes, plan.plans.rows, inst.stats, pm))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cols", [None, 2, 5])
def test_stage_sums_reproduce_numpy_sums(cols):
    """Stage sums add each stage's rows in order, so a stage of fewer
    than 8 terms sums to the bits of ``ndarray.sum()`` on it alone, and
    a block of several columns to those of ``.sum(axis=0)`` at any
    length. ``np.add.reduceat`` is not used because it pairs a segment's
    terms differently: on standard-normal data it misses these bits in
    a third to a half of the segments of 3 to 7 terms."""
    g = np.random.default_rng(5)
    lengths = np.array([n for n in range(1, 8) for _ in range(40)])
    g.shuffle(lengths)
    shape = (lengths.sum(),) if cols is None else (lengths.sum(), cols)
    x = g.standard_normal(shape) * np.exp(g.uniform(-20, 20, shape))
    got = res.stage_sums(x, res.Stages.of(lengths))
    starts = np.cumsum(lengths) - lengths
    for i, (s, n) in enumerate(zip(starts, lengths)):
        want = x[s:s + n].sum() if cols is None else x[s:s + n].sum(axis=0)
        assert np.array_equal(got[i], want), (n, got[i], want)
    if cols is not None:  # several columns: any length
        x = g.standard_normal((25, cols))
        assert np.array_equal(res.stage_sums(x, res.Stages.of(np.array([25]))),
                              x.sum(axis=0)[None])


def test_batched_stage_search_equals_one_stage_case():
    """The closed form over many stages equals the scalar closed form
    stage by stage, and the stage costs equal the one-stage costs,
    look-ups included; a count a stage lists twice costs one look-up
    per covered operator."""
    from tests.test_cascades_reference import ref_optimize_stage_analytical

    g = np.random.default_rng(7)
    bank = _bank_with_operator_model({"f_IL_P": 1e-8, "f_P": 1e-3, "f_I": 1e-7})
    lengths = g.integers(1, 5, 30)
    rows = [{**_row(), "I": float(g.uniform(1e4, 1e7)), "L": float(g.uniform(10, 500)),
             "op": "Extract" if g.random() < 0.8 else "Sort"} for _ in range(lengths.sum())]
    curves = _curves(bank, rows)
    # Flip some stages' signs to reach every §5.3 case.
    flip = np.repeat(g.choice([-1.0, 1.0], (len(lengths), 2)), lengths, axis=0)
    curves.theta_p = curves.theta_p * flip[:, 0]
    curves.theta_c = curves.theta_c * flip[:, 1]
    counts = np.column_stack([g.integers(1, 100, len(lengths)), g.integers(1, 100, len(lengths))])
    counts[::3, 1] = counts[::3, 0]
    batched = res.LookupCounter()
    stages = res.Stages.of(lengths)
    p = res.analytical_optima(curves, stages, batched)
    costs = res.stage_costs(curves, stages, counts, batched)
    alone = res.LookupCounter()
    starts = np.cumsum(lengths) - lengths
    for i, (s, n) in enumerate(zip(starts, lengths)):
        ctx = curves[np.arange(s, s + n)]
        assert p[i] == ref_optimize_stage_analytical(ctx, alone)
        distinct = np.unique(counts[i])
        want = dict(zip(distinct, res.stage_costs_at(ctx, distinct, alone)))
        assert costs[i].tolist() == [want[c] for c in counts[i]]
    assert batched.lookups == alone.lookups
    assert {1, res.MAX_P} <= set(p.tolist()) and len(set(p.tolist())) > 2
