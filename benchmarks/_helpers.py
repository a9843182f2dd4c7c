"""Benchmark helpers: run a table harness once under pytest-benchmark
and persist the measured table for EXPERIMENTS.md."""
from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def bench_table(benchmark, name: str, fn):
    """Time one full regeneration of a table and save it as markdown."""
    from repro.metrics import fmt_table

    df = benchmark.pedantic(fn, rounds=1, iterations=1)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.md"), "w") as f:
        f.write(fmt_table(df.to_dict("records")))
    return df
