"""TPC-H-lite table registration for the Figure 20 experiment."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data

TABLES = ("lineitem", "orders", "customer", "part", "supplier", "nation")


def load_tables(spark: SparkSession, sf: float, seed: int = 0) -> dict[str, pd.DataFrame]:
    """Generate all TPC-H-lite tables as pandas frames, register each as
    a Spark temp view, and return the frames for the DuckDB oracle.
    Deterministic in (sf, seed)."""
    frames = {
        "lineitem": synth_data.lineitem(sf=sf, seed=seed),
        "orders": synth_data.orders(sf=sf, seed=seed + 1),
        "customer": synth_data.customer(sf=sf, seed=seed + 2),
        "part": synth_data.part(sf=sf, seed=seed + 5),
        "supplier": synth_data.supplier(sf=sf, seed=seed + 6),
        "nation": synth_data.nation(),
    }
    for name, pdf in frames.items():
        spark.createDataFrame(pdf).createOrReplaceTempView(name)
    return frames
