"""The layer boundaries the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Layers and the public names wrapped (each where its callers resolve it):

- ``scope``: ``Cluster.generate_days``, ``simulator.instantiate``;
- ``features``: ``feature_matrix`` as bound in ``repro.core.models`` and
  in ``repro.optimizer.resource``, which both import it by name;
- ``learners``: ``ElasticNet.fit``, ``FastTreeRegressor.fit``;
- ``models``: ``train_bank``, ``train_family_pandas``,
  ``train_family_spark`` (whose fits run in Spark's Python workers,
  out of the tracer's sight), ``ModelBank.predict_all``;
- ``combined``: ``CombinedModel.fit``, ``CombinedModel.predict``;
- ``resource``: ``predict_costs_at``, ``optimize_stage_analytical``;
- ``cascades``: ``CleoPlanner.plan``, ``DefaultPlanner.plan``.

A span's layer is the part of its name before the first dot.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Tracer


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    from repro.core import combined, models
    from repro.core.learners import ensemble, linear
    from repro.optimizer import cascades
    from repro.optimizer import resource as res
    from repro.scope import simulator as sim
    from repro.scope import workload

    def generated(c, out, *args, **kwargs):
        ops, jobs = out
        c["scope.op_rows"] = len(ops)
        c["scope.jobs"] = len(jobs)

    tracer.wrap(workload.Cluster, "generate_days", "scope.generate_days", generated)
    tracer.wrap(sim, "instantiate", "scope.instantiate")

    def frame_rows(c, out, pdf, *args, **kwargs):
        c["features.feature_matrix_rows"] += len(pdf)

    for module in (models, res):
        tracer.wrap(module, "feature_matrix", "features.feature_matrix", frame_rows)

    tracer.wrap(linear.ElasticNet, "fit", "learners.elasticnet_fit")
    tracer.wrap(ensemble.FastTreeRegressor, "fit", "learners.fasttree_fit")

    def skipped(c, out, ops, *args, **kwargs):
        for spec in models.FAMILIES:
            sizes = ops.groupby(spec.key_col).size()
            c[f"models.skipped_groups.{spec.name}"] += int((sizes < spec.min_occurrences).sum())

    tracer.wrap(models, "train_bank", "models.train_bank", skipped)

    def fitted(c, out, ops, spec, *args, **kwargs):
        c[f"models.fitted.{spec.name}"] += len(out)

    for fn in ("train_family_pandas", "train_family_spark"):
        tracer.wrap(models, fn, lambda ops, spec, *a, **k: f"models.train_family.{spec.name}",
                    fitted)

    def covered(c, out, bank, pdf, *args, **kwargs):
        c["models.predict_rows"] += len(pdf)
        for spec in models.FAMILIES:
            c[f"models.covered_rows.{spec.name}"] += int(out[f"pred_{spec.key_col}"].notna().sum())

    tracer.wrap(models.ModelBank, "predict_all", "models.predict_all", covered)

    def combined_models(c, out, *args, **kwargs):
        c["combined.models"] = len(out.models)

    def fallback(c, out, model, bank, pdf, *args, **kwargs):
        c["combined.fallback_rows"] += int((~pdf["op"].astype(str).isin(model.models)).sum())

    tracer.wrap(combined.CombinedModel, "fit", "combined.fit", combined_models)
    tracer.wrap(combined.CombinedModel, "predict", "combined.predict", fallback)

    tracer.wrap(res, "predict_costs_at", "resource.predict_costs_at")
    tracer.wrap(res, "optimize_stage_analytical", "resource.analytical")

    def lookups(c, out, *args, **kwargs):
        c["resource.lookups"] += out.lookups

    tracer.wrap(cascades.CleoPlanner, "plan", "cascades.cleo_plan", lookups)
    tracer.wrap(cascades.DefaultPlanner, "plan", "cascades.default_plan")


def metrics(tracer: Tracer, families: list[str]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Workloads mark set-up with a ``bench.setup`` span and each traced
    operation with a ``bench.traced`` span. Training is counted in both
    phases (it is the timed work of ``learn`` and set-up of ``plan``);
    ``scope.generate_days`` comes from set-up; everything else comes
    from the traced operations only.
    """
    setup = tracer.descendants(tracer.named("bench.setup"))
    timed = tracer.descendants(tracer.named("bench.traced"))
    both = setup + timed
    cs, ct = tracer.counters["setup"], tracer.counters["timed"]

    def calls(name, within):
        return len(tracer.named(name, within))

    def secs(name, within):
        return tracer.total_seconds(tracer.named(name, within))

    gen = [tracer.spans[i][2] - tracer.spans[i][1] for i in tracer.named("scope.generate_days", setup)]
    m = {
        "scope.generate_days_s": statistics.median(gen) if gen else 0.0,
        "scope.op_rows": cs["scope.op_rows"],
        "scope.jobs": cs["scope.jobs"],
        "scope.instantiate_calls": calls("scope.instantiate", timed),
        "scope.instantiate_s": secs("scope.instantiate", timed),
        "features.feature_matrix_calls": calls("features.feature_matrix", timed),
        "features.feature_matrix_rows": ct["features.feature_matrix_rows"],
        "features.feature_matrix_s": secs("features.feature_matrix", timed),
        "learners.elasticnet_fit_calls": calls("learners.elasticnet_fit", both),
        "learners.elasticnet_fit_s": secs("learners.elasticnet_fit", both),
        "learners.fasttree_fit_s": secs("learners.fasttree_fit", both),
        "models.train_bank_s": secs("models.train_bank", both),
        "models.predict_all_s": secs("models.predict_all", timed),
    }
    predicted = ct["models.predict_rows"]
    for fam in families:
        m[f"models.train_family_s.{fam}"] = secs(f"models.train_family.{fam}", both)
        m[f"models.fitted.{fam}"] = cs[f"models.fitted.{fam}"] + ct[f"models.fitted.{fam}"]
        m[f"models.skipped_groups.{fam}"] = (cs[f"models.skipped_groups.{fam}"]
                                            + ct[f"models.skipped_groups.{fam}"])
        m[f"models.coverage_pct.{fam}"] = (
            100.0 * ct[f"models.covered_rows.{fam}"] / predicted if predicted else 0.0)
    m.update({
        "combined.fit_s": secs("combined.fit", timed),
        "combined.predict_s": secs("combined.predict", timed),
        "combined.models": ct["combined.models"],
        "combined.fallback_rows": ct["combined.fallback_rows"],
        "resource.predict_costs_at_calls": calls("resource.predict_costs_at", timed),
        "resource.predict_costs_at_s": secs("resource.predict_costs_at", timed),
        "resource.analytical_calls": calls("resource.analytical", timed),
        "resource.analytical_s": secs("resource.analytical", timed),
        "resource.lookups": ct["resource.lookups"],
        "cascades.cleo_plan_s": secs("cascades.cleo_plan", timed),
        "cascades.default_plan_s": secs("cascades.default_plan", timed),
    })
    # Self time of every layer inside CleoPlanner.plan: by construction
    # these sum to cascades.cleo_plan_s.
    self_s = tracer.self_seconds()
    inside = defaultdict(float)
    for i in tracer.descendants(tracer.named("cascades.cleo_plan", timed)):
        inside[tracer.spans[i][0].split(".", 1)[0]] += self_s[i]
    m["cascades.cleo_plan_self_s"] = inside["cascades"]
    for layer in ("resource", "features", "scope"):
        m[f"{layer}.cleo_plan_self_s"] = inside[layer]
    m["trace.spans"] = len(tracer.spans)
    return m
