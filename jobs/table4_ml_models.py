"""Job entrypoint: Table 4 - ML algorithms for operator-subgraph models.

Usage: python jobs/table4_ml_models.py
"""
from _common import emit

from repro.experiments import table4


def main() -> None:
    emit("Table 4 - ML algorithms for operator-subgraph models", table4.run())


if __name__ == "__main__":
    main()
