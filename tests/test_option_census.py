"""Census of the package's settable defaulted values.

A value that no program changes is a constant (ROADMAP aim 2). The
census parses every module under ``src/`` and lists each parameter with
a default, of a function, method or lambda, and each defaulted field of
``workload.ClusterConfig``. The list must equal the allow-list below.
Each allowed value names a caller outside ``tests/`` that passes another
value: the file and a text the call contains. The one exception is a
parameter whose default is part of numpy's interface.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Census name -> (non-test caller's file, text of its call).
ALLOWED = {
    # Table 6 compares meta-learners.
    "repro.core.combined.CombinedModel.__init__(learner_factory)":
        ("src/repro/experiments/table6.py", "CombinedModel(learner_factory=factory)"),
    # The model families with context columns (Op-Input, Operator).
    "repro.core.features.feature_matrix(context)":
        ("src/repro/core/models.py", "feature_matrix(ops, context=spec.context)"),
    # Fig 20's TPC-H planner.
    "repro.core.learners.linear.ElasticNet.__init__(alpha)":
        ("src/repro/tpch/planner.py", "ElasticNet(alpha=0.05)"),
    # The random forest and FastTree grow several trees per call.
    "repro.core.learners.tree.grow(bounds)":
        ("src/repro/core/learners/ensemble.py", "bounds=bounds"),
    "repro.core.learners.tree.grow(feats)":
        ("src/repro/core/learners/ensemble.py", "feats=np.array(feats)"),
    # The benchmark's learn-spark workload.
    "repro.core.models.train_bank(spark)":
        ("cleobench/workloads.py", "train_bank(self.train, spark=self.spark)"),
    # Table 7.
    "repro.experiments.common.model_rows(include_p95)":
        ("src/repro/experiments/table7.py", "model_rows(scored, include_p95=True)"),
    # Fig 19's CLEO without partition exploration.
    "repro.optimizer.cascades.CleoPlanner.__init__(explore_partitions)":
        ("src/repro/experiments/fig19.py", "CleoPlanner(bank, explore_partitions=False)"),
    # Ad-hoc templates.
    "repro.scope.workload.Cluster._make_template(adhoc_tag)":
        ("src/repro/scope/workload.py", "adhoc_tag=f\"{name}_adhoc_d{day}_{i}\""),
    # Fig 20's join hints.
    "repro.tpch.queries.Query.sql(hint)":
        ("src/repro/tpch/planner.py", "q.sql(params, hint=q.hint_clause(strategy))"),
    # The production clusters.
    "repro.scope.workload.ClusterConfig.n_input_weights":
        ("src/repro/scope/workload.py", "n_input_weights=(0.2, 0.45, 0.35)"),
}
# numpy calls an ISeedSequence's generate_state with this signature.
NUMPY_INTERFACE = {"repro.scope.simulator._Unseeded.generate_state(dtype)"}


def _defaulted(args: ast.arguments) -> list[str]:
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def census() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    inner = scope + [getattr(child, "name", "<lambda>")]
                    found.extend(f"{'.'.join(inner)}({arg})" for arg in _defaulted(child.args))
                    visit(child, inner)
                elif isinstance(child, ast.ClassDef):
                    inner = scope + [child.name]
                    if ".".join(inner) == "repro.scope.workload.ClusterConfig":
                        found.extend(f"{'.'.join(inner)}.{st.target.id}" for st in child.body
                                     if isinstance(st, ast.AnnAssign) and st.value is not None)
                    visit(child, inner)
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text()), [module])
    return found


def test_every_settable_default_is_allowed():
    found = census()
    allowed = [*ALLOWED, *NUMPY_INTERFACE]
    unlisted = [name for name in found if name not in allowed]
    assert unlisted == [], "a default no program changes: make it a constant"
    assert sorted(found) == sorted(allowed), "an allow-list entry the census does not find once"


def test_every_allowed_value_names_a_non_test_caller():
    for name, (caller, call) in ALLOWED.items():
        assert not caller.startswith("tests/"), name
        assert call in (ROOT / caller).read_text(), (name, caller, call)
