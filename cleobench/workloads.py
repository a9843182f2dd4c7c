"""The benchmark's workloads, driven through the public API of
``repro.scope``, ``repro.core`` and ``repro.optimizer``.

Each workload is a closed loop with one client: it sets up once, then
runs operations back to back until the time budget is spent (at least
one). An operation that raises or fails a check counts as failed and
the loop goes on. Nothing is read from or written to ``.cache/``.

- ``learn`` (cluster4, driver path): set-up generates days 1-3 three
  times (``setup_s`` is the median). One operation is the daily
  retraining pipeline: ``train_bank`` on day 1, ``CombinedModel.fit``
  on day 2, then scoring day 3 with ``predict_all`` and
  ``CombinedModel.predict``. Nothing is planned. The rows of each
  day's log come in an order drawn from the seed.
- ``plan`` (cluster4): set-up generates days 1-3 and trains the
  days-1-2 bank. One operation plans one day-3 recurring job instance
  with ``CleoPlanner`` (analytical strategy, exploration on) and with
  ``DefaultPlanner``, and scores the CLEO plan against the logged
  production plan in the simulator (Fig 19). Jobs are taken in rounds,
  one instance of every live template per round, in an order drawn
  from the seed, cycling if the budget outlasts them.
- ``learn-spark`` (cluster1): the ``learn`` pipeline with
  ``train_bank(spark=...)``; run by hand, see :class:`LearnSpark`.

The cluster is the paper's configuration (``cluster_config``), so every
seed runs the same work. The seed orders it: it permutes the rows of
``learn``'s logs and orders ``plan``'s jobs. Training time per model
depends on the cluster's data, through elastic-net convergence, so a
seed that changed the cluster would spread the timings across seeds
(see README.md). ``cluster_seed`` replaces ``ClusterConfig.seed``, to
check the workloads on other clusters by hand.
Timings are reported per unit of work: per trained model for ``learn``,
per candidate-plan operator (the job's search-space size times its
operator count) for ``plan``.
"""
from __future__ import annotations

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from repro.core import models
from repro.core.combined import CombinedModel
from repro.experiments.common import cluster_config
from repro.metrics import summarize
from repro.optimizer.cascades import MAX_CANDIDATES, CleoPlanner, DefaultPlanner
from repro.optimizer.resource import MAX_P
from repro.scope import simulator as sim
from repro.scope.plan import (
    assign_input_templates,
    choice_points,
    expand_physical,
    operator_signature,
    plan_signature,
)
from repro.scope.workload import Cluster

FAMILIES = [f.name for f in models.FAMILIES]
SETUP_REPEATS = 3  # learn set-up repeats; plan's set-up trains a bank, so runs once
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".cleobench")
SPARK_DRIVER_MEMORY = "2g"


def seeded_config(name: str, seed: int):
    """The paper's configuration of cluster ``name`` with ``seed``."""
    return dataclasses.replace(cluster_config(name), seed=seed)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Failure(Exception):
    """A correctness check that did not hold."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


class Workload:
    """Set-up, one operation, and the metrics of a list of operations."""

    name = ""
    cluster = ""
    trace_ops = 1  # operations in a traced run, each run untraced and traced
    min_ops = 1  # operations an untraced run makes however long they take

    def __init__(self, seed: int, cluster_seed: int | None = None):
        self.seed = seed
        self.cluster_seed = cluster_seed
        self.setup_times: list[float] = []

    def config(self):
        """The paper's configuration of the workload's cluster, with
        ``cluster_seed`` as its ``ClusterConfig.seed`` if one was given."""
        if self.cluster_seed is None:
            return cluster_config(self.cluster)
        return seeded_config(self.cluster, self.cluster_seed)

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, i: int):
        """Run operation ``i`` and return its record; raises on failure."""
        raise NotImplementedError

    def run_checks(self, records: list) -> list[str]:
        """Checks over all operations; returns failed descriptions."""
        return []

    def units(self, rec) -> tuple[float, float]:
        """(timed seconds, units of work) of one operation."""
        raise NotImplementedError

    def report(self, records: list) -> dict[str, tuple[float, str]]:
        """The workload's named metrics, for the human-readable report."""
        raise NotImplementedError

    def layer_extras(self, records: list) -> dict[str, float]:
        """Per-layer metrics that come from operation records."""
        return {}

    def close(self) -> None:
        """Stop whatever set-up started."""


class Learn(Workload):
    name = "learn"
    cluster = "cluster4"

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.generate()
            self.setup_times.append(time.perf_counter() - t0)

    def generate(self) -> None:
        ops, _ = Cluster(self.config()).generate_days([1, 2, 3])
        order = np.random.default_rng(self.seed).permutation(len(ops))
        ops = ops.iloc[order].reset_index(drop=True)
        self.train = ops[ops.day == 1]
        self.comb = ops[ops.day == 2]
        self.test = ops[ops.day == 3].reset_index(drop=True)

    def fit_bank(self, i: int) -> tuple[models.ModelBank, dict]:
        """``train_bank`` on day 1, plus any record fields of the fit."""
        return models.train_bank(self.train), {}

    def operation(self, i: int) -> dict:
        t0 = time.perf_counter()
        bank, fit_record = self.fit_bank(i)
        t1 = time.perf_counter()
        combined = CombinedModel().fit(bank, self.comb)
        t2 = time.perf_counter()
        scored = bank.predict_all(self.test)
        pred = combined.predict(bank, self.test)
        t3 = time.perf_counter()
        actual = self.test["actual"].to_numpy()
        comb = summarize(pred, actual)
        default = summarize(self.test["cost_default"].to_numpy(), actual)
        n_models = {f: bank.n_models(f) for f in FAMILIES}
        check(comb["median_error_pct"] < 0.5 * default["median_error_pct"],
              f"Combined median error {comb['median_error_pct']:.1f}% is not below half "
              f"of Default's {default['median_error_pct']:.1f}%")
        op_cov = 100.0 * scored["pred_op"].notna().mean()
        check(op_cov == 100.0, f"Operator coverage {op_cov:.1f}% is not 100%")
        empty = [f for f, n in n_models.items() if n == 0]
        check(not empty, f"families without a model: {empty}")
        return {
            "train_s": t1 - t0, "combined_fit_s": t2 - t1, "score_s": t3 - t2,
            "wall_s": t3 - t0, "models": sum(n_models.values()),
            "median_error_pct": comb["median_error_pct"],
            "p95_error_pct": comb["p95_error_pct"],
            "default_median_error_pct": default["median_error_pct"],
            **fit_record,
        }

    def units(self, rec) -> tuple[float, float]:
        return rec["wall_s"], rec["models"]

    def report(self, records: list) -> dict[str, tuple[float, str]]:
        med = statistics.median
        return {
            "learn_s": (med(r["wall_s"] for r in records), "s"),
            "train_bank_s": (med(r["train_s"] for r in records), "s"),
            "combined_fit_s": (med(r["combined_fit_s"] for r in records), "s"),
            "score_s": (med(r["score_s"] for r in records), "s"),
            "models": (records[-1]["models"], "count"),
            "combined_median_error_pct": (records[-1]["median_error_pct"], "%"),
            "combined_p95_error_pct": (records[-1]["p95_error_pct"], "%"),
            "default_median_error_pct": (records[-1]["default_median_error_pct"], "%"),
        }

    def layer_extras(self, records: list) -> dict[str, float]:
        return {
            "combined.median_error_pct": records[-1]["median_error_pct"],
            "combined.p95_error_pct": records[-1]["p95_error_pct"],
        }


class LearnSpark(Learn):
    """The ``learn`` pipeline on cluster1 with ``train_bank(spark=...)``.

    Set-up starts a ``local[nproc]`` Spark session (the configuration of
    ``jobs/_common.py``), starts one Python worker per core, and
    generates days 1-3 once. Not in BENCHMARK.json: one run takes about
    two minutes, so it is run by hand (see README.md)."""

    name = "learn-spark"
    cluster = "cluster1"
    spark = None
    fits = 0  # names each fit's Spark job group

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.spark = start_spark()
        self.generate()
        self.setup_times.append(time.perf_counter() - t0)
        sc = self.spark.sparkContext
        self.spark_info = {
            "master": sc.master,
            "default_parallelism": sc.defaultParallelism,
            "driver_memory": sc.getConf().get("spark.driver.memory"),
        }

    def fit_bank(self, i: int) -> tuple[models.ModelBank, dict]:
        sc = self.spark.sparkContext
        self.fits += 1
        group = f"cleobench-train-{self.fits}"
        sc.setJobGroup(group, "train_bank")
        try:
            bank = models.train_bank(self.train, spark=self.spark)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        stages = [tracker.getStageInfo(s) for j in tracker.getJobIdsForGroup(group)
                  for s in tracker.getJobInfo(j).stageIds]
        tasks = [s.numTasks for s in stages if s is not None]
        return bank, {"spark_stages": len(tasks), "spark_tasks": sum(tasks),
                      "spark_min_stage_tasks": min(tasks, default=0)}

    def layer_extras(self, records: list) -> dict[str, float]:
        # A stage with fewer tasks than cores runs its fits serially.
        return {
            **super().layer_extras(records),
            **{f"models.{k}": records[-1][k]
               for k in ("spark_stages", "spark_tasks", "spark_min_stage_tasks")},
        }

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


def start_spark():
    """A local Spark session whose files stay under the work directory,
    with its Python workers already running."""
    import pandas as pd

    nproc = len(os.sched_getaffinity(0))
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    # Spark's Python workers import repro from the source tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    # Every JVM the launch starts keeps its temporary files, and its
    # perf-data file (which ignores java.io.tmpdir), out of /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{nproc}] --driver-memory {SPARK_DRIVER_MEMORY} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false --conf spark.local.dir={tmp} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("cleobench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    warm = pd.DataFrame({"k": range(nproc)})
    spark.createDataFrame(warm).repartition(nproc).mapInPandas(
        lambda frames: frames, schema="k long").collect()
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = SparkContext._jvm = None


class Plan(Workload):
    name = "plan"
    cluster = "cluster4"
    day = 3
    trace_ops = 30

    def setup(self) -> None:
        cfg = self.config()
        t0 = time.perf_counter()
        self.cl = Cluster(cfg)
        ops, _ = self.cl.generate_days([1, 2, 3])
        bank = models.train_bank(ops[ops.day <= 2])
        self.setup_times.append(time.perf_counter() - t0)
        self.cleo = CleoPlanner(bank)
        self.default = DefaultPlanner(cfg.name)
        # Every round plans each live template once, and a run plans at
        # least the first round, so every seed plans the same templates.
        live = [t for t in self.cl.templates if t.alive(self.day)]
        rng = np.random.default_rng(self.seed)
        self.jobs = [(live[i], k) for k in range(max(t.freq for t in live))
                     for i in rng.permutation(len(live)) if k < live[i].freq]
        self.min_ops = len(live)

    def operation(self, i: int) -> dict:
        tpl, k = self.jobs[i % len(self.jobs)]
        cl = self.cl
        pm, cards, lens = cl.instance_inputs(tpl, self.day, k)
        seed_parts = (cl.cfg.name, tpl.tpl_id, self.day, k)
        t0 = time.perf_counter()
        r = self.cleo.plan(tpl, cl.world, cards, lens, pm, seed_parts)
        t1 = time.perf_counter()
        self.default.plan(tpl, cl.world, cards, lens, pm, seed_parts)
        t2 = time.perf_counter()
        logged = expand_physical(tpl.logical_root, tpl.choices)
        assign_input_templates(logged)
        sim.instantiate(logged, cl.world, cards, lens, pm, seed_parts)
        check(math.isfinite(r.predicted_cost) and r.predicted_cost > 0,
              f"{tpl.tpl_id}/{k}: predicted cost {r.predicted_cost} is not finite and positive")
        bad = [n.partitions for n in r.root.walk() if not 1 <= n.partitions <= MAX_P]
        check(not bad, f"{tpl.tpl_id}/{k}: partition counts {bad} outside [1, {MAX_P}]")
        candidates = min(MAX_CANDIDATES,
                         math.prod(len(alts) for _, alts in choice_points(tpl.logical_root)))
        changed = plan_signature(r.root) != plan_signature(logged)
        return {
            "cleo_s": t1 - t0, "default_s": t2 - t1,
            "units": candidates * sum(1 for _ in logged.walk()),
            "candidates": candidates,
            "lat_logged": sim.job_latency(logged), "lat_cleo": r.actual_latency,
            "cpu_logged": sim.job_cpu_seconds(logged), "cpu_cleo": r.cpu_seconds,
            "changed": changed,
            "partition_changed": changed
            and operator_signature(r.root) == operator_signature(logged),
        }

    @staticmethod
    def gains(records: list) -> tuple[float, float]:
        """Cumulative simulated latency and CPU improvement, in %."""
        lat = 1 - sum(r["lat_cleo"] for r in records) / sum(r["lat_logged"] for r in records)
        cpu = 1 - sum(r["cpu_cleo"] for r in records) / sum(r["cpu_logged"] for r in records)
        return 100 * lat, 100 * cpu

    def run_checks(self, records: list) -> list[str]:
        lat, _ = self.gains(records)
        return [] if lat > 0 else [f"latency_gain_pct {lat:.2f} is not above 0"]

    def units(self, rec) -> tuple[float, float]:
        return rec["cleo_s"], rec["units"]

    def report(self, records: list) -> dict[str, tuple[float, str]]:
        ms = [1000 * r["cleo_s"] for r in records]
        lat, cpu = self.gains(records)
        return {
            "plan_ms_p50": (percentile(ms, 50), "ms"),
            "plan_ms_p90": (percentile(ms, 90), "ms"),
            "plan_samples": (len(ms), "count"),
            "plan_overhead_x": (sum(r["cleo_s"] for r in records)
                                / sum(r["default_s"] for r in records), "x"),
            "latency_gain_pct": (lat, "%"),
            "cpu_gain_pct": (cpu, "%"),
        }

    def layer_extras(self, records: list) -> dict[str, float]:
        lat, cpu = self.gains(records)
        return {
            "cascades.candidates": sum(r["candidates"] for r in records),
            "cascades.changed_plans": sum(r["changed"] for r in records),
            "cascades.partition_changed_plans": sum(r["partition_changed"] for r in records),
            "cascades.latency_gain_pct": lat,
            "cascades.cpu_gain_pct": cpu,
        }


WORKLOADS = {w.name: w for w in (Learn, Plan, LearnSpark)}
# Every traced run reports these, as 0 where the workload has none.
EXTRA_LAYER_METRICS = [
    "combined.median_error_pct", "combined.p95_error_pct",
    "cascades.candidates", "cascades.changed_plans", "cascades.partition_changed_plans",
    "cascades.latency_gain_pct", "cascades.cpu_gain_pct",
]


def run_operation(w: Workload, i: int):
    """One operation; returns its record, or None after logging a failure."""
    try:
        return w.operation(i)
    except Exception:  # the loop keeps running; the failure is counted
        print(f"cleobench: {w.name} operation {i} failed:\n{traceback.format_exc()}",
              file=sys.stderr)
        return None
