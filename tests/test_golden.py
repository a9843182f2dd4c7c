"""Golden check: every simulated table regenerates to the tracked
``results/<name>.md`` that EXPERIMENTS.md is built from.

Tables are compared as printed (``metrics.fmt_table``), from the same
calls ``benchmarks/`` makes when it writes them. Excluded by name:
Fig 19's planning-time rows (``*_planning_ms_per_job``,
``cleo_vs_default_planning_x``, ``cleo_cost_model_share_pct``), which
are wall-clock timings, and all of Fig 20, which times real Spark
queries.
"""
import os
import re

import pytest

from repro.experiments import (
    fig9,
    fig15,
    fig17,
    fig19,
    table1,
    table4,
    table5,
    table6,
    table7,
    table8,
    table23,
)
from repro.metrics import fmt_table

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")
TIMING_ROW = re.compile(
    r"\| (\w+_planning_ms_per_job|cleo_vs_default_planning_x|cleo_cost_model_share_pct) \|")

SIMULATED = {
    "table1": table1.run,
    "table23": table23.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "fig15": fig15.run,
    "fig17": fig17.run,
    "fig19": fig19.run,
}


def _assert_matches_results(name, df):
    with open(os.path.join(RESULTS, f"{name}.md")) as f:
        tracked = f.read()

    def rows(text):
        return [line for line in text.splitlines() if not TIMING_ROW.match(line)]

    assert rows(fmt_table(df.to_dict("records"))) == rows(tracked)


@pytest.mark.parametrize("name", SIMULATED)
def test_simulated_table_matches_results(name):
    _assert_matches_results(name, SIMULATED[name]())


def test_fig9_matches_results(spark):
    _assert_matches_results("fig9", fig9.run(spark))
