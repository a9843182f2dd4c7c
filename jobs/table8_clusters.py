"""Job entrypoint: Table 8 - default vs combined per cluster.

Usage: python jobs/table8_clusters.py
"""
from _common import emit

from repro.experiments import table8


def main() -> None:
    emit("Table 8 - default vs combined per cluster", table8.run())


if __name__ == "__main__":
    main()
