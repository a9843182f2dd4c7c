"""TPC-H-lite table registration for the Figure 20 experiment."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data

TABLES = ("lineitem", "orders", "customer", "part", "supplier", "nation")


def load_tables(spark: SparkSession, sf: float) -> dict[str, pd.DataFrame]:
    """Generate all TPC-H-lite tables as pandas frames, register each as
    a Spark temp view, and return the frames for the DuckDB oracle.
    Deterministic in sf."""
    frames = {
        "lineitem": synth_data.lineitem(sf=sf),
        "orders": synth_data.orders(sf=sf),
        "customer": synth_data.customer(sf=sf),
        "part": synth_data.part(sf=sf),
        "supplier": synth_data.supplier(sf=sf),
        "nation": synth_data.nation(),
    }
    for name, pdf in frames.items():
        spark.createDataFrame(pdf).createOrReplaceTempView(name)
    return frames
