"""CLEO benchmark: one command per workload, run from the repository root.

    python3 cleobench/run.py --workload learn|plan|learn-spark [--seed N] [--seconds S]
                             [--trace 0|1] [--cluster-seed N]

Untraced (``--trace 0``), the run sets up, runs operations for
``--seconds`` (and at least the workload's ``min_ops``), prints a
report of the workload's named metrics, and ends with one JSON line
holding the end-to-end metrics.
Traced (``--trace 1``), it wraps each layer's public functions with
span timers and counters (see ``layers.py``), runs a fixed number of
operations each once untraced and once traced, writes the spans to
``.cleobench/trace-<workload>-<seed>.json`` and ends with the per-layer
metrics. A failed operation or check makes ``correct`` false, is
printed to stderr, and makes the exit code 1.

The cluster is the paper's configuration (cluster4 seed 44, cluster1
seed 11); ``--seed`` orders the workload's rows or jobs (see
``workloads.py``). ``--cluster-seed`` replaces the cluster's
``ClusterConfig.seed``, to check the workloads on another cluster.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pin_interpreter() -> None:
    """Fix string hashing and thread pools before numpy is imported.

    Workload generation iterates sets of strings, whose order follows
    the per-process hash seed; pinning it makes a seed give the same
    inputs in every process."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((ln.split()[0] for ln in f if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment(w) -> dict:
    import platform

    import numpy
    import pandas
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
        "git_commit": _git_commit(),
        "spark": getattr(w, "spark_info", None),
    }


def unit_of(name: str, families: list[str]) -> str:
    stem = name.rsplit(".", 1)[0] if name.split(".")[-1] in families else name
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_x", "x")):
        if stem.endswith(suffix):
            return unit
    return "count"


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced(w, seconds: float):
    import time

    from workloads import run_operation

    w.setup()
    records, attempted = [], 0
    deadline = time.perf_counter() + seconds
    while attempted < w.min_ops or time.perf_counter() < deadline:
        rec = run_operation(w, attempted)
        attempted += 1
        if rec is not None:
            records.append(rec)
    return records, attempted, attempted - len(records)


def traced(w):
    """Set-up and ``w.trace_ops`` operations, each run untraced and then
    traced (traced first on odd operations, to cancel warm-up effects).
    Returns (traced records, attempted, failed, tracing overhead %, tracer)."""
    import layers
    from tracing import Tracer
    from workloads import run_operation

    tracer = Tracer()
    layers.install(tracer)
    with tracer.span("bench.setup"):
        w.setup()
    tracer.unwrap_all()
    tracer.phase = "timed"
    plain_s = traced_s = 0.0
    records, attempted, failed = [], 0, 0
    for i in range(w.trace_ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            attempted += 1
            if with_trace:
                layers.install(tracer)
                with tracer.span("bench.traced"):
                    rec = run_operation(w, i)
                tracer.unwrap_all()
            else:
                rec = run_operation(w, i)
            if rec is None:
                failed += 1
            elif with_trace:
                records.append(rec)
                traced_s += w.units(rec)[0]
            else:
                plain_s += w.units(rec)[0]
    overhead = 100.0 * (traced_s / plain_s - 1.0) if plain_s and traced_s else 0.0
    return records, attempted, failed, overhead, tracer


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["learn", "plan", "learn-spark"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cluster-seed", type=int, default=None)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"cleobench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import statistics

    import layers
    from workloads import EXTRA_LAYER_METRICS, FAMILIES, WORK_DIR, WORKLOADS, percentile

    w = WORKLOADS[args.workload](seed=args.seed, cluster_seed=args.cluster_seed)
    try:
        if args.trace:
            records, attempted, failed, overhead, tracer = traced(w)
        else:
            records, attempted, failed = untraced(w, args.seconds)
    finally:
        w.close()
    problems = w.run_checks(records) if records else ["no operation succeeded"]
    for msg in problems:
        print(f"cleobench: check failed: {msg}", file=sys.stderr)

    print(f"cleobench {w.name} seed={w.seed} cluster_seed={w.config().seed} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    print("environment " + json.dumps(environment(w)))
    if records:
        for name, (value, unit) in w.report(records).items():
            print(f"  {name} = {value:.6g} {unit}")

    if args.trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.dump(os.path.join(WORK_DIR, f"trace-{w.name}-{w.seed}.json"))
        values = dict.fromkeys(EXTRA_LAYER_METRICS, 0.0)
        values.update(layers.metrics(tracer, FAMILIES))
        if records:
            values.update(w.layer_extras(records))
        values["trace.overhead_pct"] = overhead
        metrics = {k: {"value": float(v), "unit": unit_of(k, FAMILIES)}
                   for k, v in values.items()}
    else:
        per_unit = [1000.0 * s / n for s, n in map(w.units, records)] or [float("nan")]
        metrics = {
            "setup_s": {"value": statistics.median(w.setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "ms_per_unit_p50": {"value": percentile(per_unit, 50), "unit": "ms"},
            "ms_per_unit_p90": {"value": percentile(per_unit, 90), "unit": "ms"},
        }
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    _pin_interpreter()
    sys.exit(main())
