"""Experiment harnesses — one module per table/figure of the paper's
evaluation (§6). Each exposes a ``run(...)`` returning a pandas
DataFrame whose rows mirror the published table; ``jobs/`` wraps them
as command-line entrypoints and ``benchmarks/`` regenerates them under
pytest-benchmark. Only Fig 9 and Fig 20 need a SparkSession; Tables 1
and 4 take an optional one to spread their cross-validation. Model
banks are trained on the driver, and each cluster's logs and trained
models are built once per process (``common``). Paper-vs-measured
numbers are recorded in EXPERIMENTS.md.
"""
