"""Job entrypoint: Table 1 - regression loss functions.

Usage: python jobs/table1_loss_functions.py
"""
from _common import emit

from repro.experiments import table1


def main() -> None:
    emit("Table 1 - regression loss functions", table1.run())


if __name__ == "__main__":
    main()
