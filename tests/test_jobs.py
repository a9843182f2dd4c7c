"""The job entrypoints import and expose main(), and ``jobs/run.py`` runs
every experiment of EXPERIMENTS.md by name, starting Spark only for
the experiments that need it."""
import importlib
import importlib.util
import os
import sys

import pandas as pd
import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
JOB_FILES = sorted(
    f for f in os.listdir(JOBS_DIR) if f.endswith(".py") and not f.startswith("_")
)
DESIGN_TABLES = ("table1", "table23", "table4", "table5", "table6", "table7", "table8",
                 "fig9", "fig15", "fig17", "fig19", "fig20")


def load_job(fname):
    sys.path.insert(0, JOBS_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            fname[:-3], os.path.join(JOBS_DIR, fname)
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(JOBS_DIR)


@pytest.mark.parametrize("fname", JOB_FILES)
def test_job_module_has_main(fname):
    assert callable(load_job(fname).main)


@pytest.fixture(scope="module")
def run_job():
    return load_job("run.py")


def test_every_design_table_has_a_job(run_job):
    assert set(run_job.TITLES) == set(DESIGN_TABLES)


@pytest.mark.parametrize("name", DESIGN_TABLES)
def test_run_has_experiment(run_job, name):
    assert name in run_job.TITLES
    assert callable(importlib.import_module(f"repro.experiments.{name}").run)


class FakeSpark:
    def __init__(self, app):
        self.app = app
        self.stopped = False

    def stop(self):
        self.stopped = True


@pytest.fixture
def sessions(run_job, monkeypatch):
    """The fake Spark sessions that ``run.main`` starts."""
    started = []
    monkeypatch.setattr(run_job, "get_spark",
                        lambda app: started.append(FakeSpark(app)) or started[-1])
    return started


def test_run_prints_the_section_title(run_job, sessions, monkeypatch, capsys):
    table5 = importlib.import_module("repro.experiments.table5")
    monkeypatch.setattr(table5, "run", lambda: pd.DataFrame({"x": [1]}))
    run_job.main(["table5"])
    assert f"== {run_job.TITLES['table5']} ==" in capsys.readouterr().out
    assert sessions == []


@pytest.mark.parametrize("argv, sf", [(["fig20"], 0.05), (["fig20", "0.1"], 0.1)],
                         ids=["default_sf", "sf_0.1"])
def test_run_fig20_on_spark_at_scale_factor(run_job, sessions, monkeypatch, capsys,
                                            argv, sf):
    fig20 = importlib.import_module("repro.experiments.fig20")
    calls = []
    monkeypatch.setattr(fig20, "run", lambda spark, sf: calls.append((spark, sf))
                        or pd.DataFrame({"x": [1]}))
    run_job.main(argv)
    (spark,) = sessions
    assert calls == [(spark, sf)]
    assert spark.app == "fig20" and spark.stopped
    assert f"(SF={sf}) ==" in capsys.readouterr().out


def test_run_rejects_an_unknown_name(run_job):
    with pytest.raises(SystemExit):
        run_job.main(["table9"])


def test_bench_pairs_summary_checks_each_metric_against_its_bound():
    """``summarize`` records each side's spread (IQR / median), whether
    the change's median is within the metric's bound, and whether the
    runs resolve the bound: the parent spreads no wider than it, or every
    change run beats every parent run."""
    summarize = load_job("bench_pairs.py").summarize
    parent = [10.0, 10.0, 11.0, 12.0, 12.0]

    def run(change, better="lower", bound=0.1):
        runs = [{side: {"metrics": {"m": {"value": v}}} for side, v in
                 (("parent", p), ("change", c))} for p, c in zip(parent, change)]
        return summarize(runs, [{"name": "m", "unit": "s", "better": better,
                                 "bound": bound}])["m"]

    same = run(parent)
    assert same["parent"]["spread"] == same["parent"]["iqr"] / 11.0 == 2.0 / 11.0
    assert same["within_bound"] and not same["resolved"] and same["wins"] == 0
    slower = run([12.0, 12.0, 13.0, 13.0, 13.0])  # median 13 > 11 * 1.1
    assert not slower["within_bound"] and not slower["resolved"]
    faster = run([5.0, 6.0, 7.0, 8.0, 9.0])  # every change run beats every parent run
    assert faster["within_bound"] and faster["resolved"] and faster["wins"] == 5
    assert run(parent, bound=0.2)["resolved"]  # the parent's spread, 0.18, is within 0.2
    higher = run([9.0, 9.0, 9.5, 10.0, 10.0], better="higher")  # 9.5 < 11 * 0.9
    assert not higher["within_bound"]
