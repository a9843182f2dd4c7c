"""Benchmark for the §6.4 / Figure 15 cardinality study."""
from benchmarks._helpers import bench_table
from repro.experiments import fig15


def test_bench_fig15_cardinality(benchmark):
    df = bench_table(benchmark, "fig15", fig15.run)
    by = df.set_index("model").median_error_pct
    # Fixing cardinalities alone barely fixes the default model (§6.4)...
    assert by["Default + CardLearner"] > by["CLEO"] * 2
    # ...while CLEO with perfect cardinalities is at least as good as CLEO.
    assert by["CLEO + CardLearner"] <= by["CLEO"] * 1.25
    assert by["CLEO"] < by["Default"] / 2
