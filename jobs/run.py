"""Run one paper experiment and print its table.

Usage: python jobs/run.py <name> [sf]     (or spark-submit jobs/run.py ...)

``name`` is one of the sections of EXPERIMENTS.md
(``make_experiments_md.SECTIONS``): table1, table23, table4-table8,
fig9, fig15, fig17, fig19, fig20. Only fig9 and fig20 start Spark;
fig20 takes an optional TPC-H scale factor ``sf`` (default 0.05).
"""
from __future__ import annotations

import importlib
import os
import sys

# Allow running from a checkout without installing the package.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from make_experiments_md import SECTIONS  # noqa: E402

TITLES = {key: title for key, title, _ in SECTIONS}
SPARK_EXPERIMENTS = ("fig9", "fig20")


def get_spark(app: str):
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in TITLES:
        sys.exit(f"usage: run.py {{{','.join(TITLES)}}} [sf]")
    name, title = argv[0], TITLES[argv[0]]
    experiment = importlib.import_module(f"repro.experiments.{name}")
    if name not in SPARK_EXPERIMENTS:
        df = experiment.run()
    else:
        spark = get_spark(name)
        if name == "fig20":
            sf = float(argv[1]) if len(argv) > 1 else 0.05
            title += f" (SF={sf})"
            df = experiment.run(spark, sf=sf)
        else:
            df = experiment.run(spark)
        spark.stop()
    print(f"\n== {title} ==")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
