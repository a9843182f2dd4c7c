"""Job entrypoint: Figure 15 / §6.4 - impact of cardinality.

Usage: python jobs/fig15_cardinality.py
"""
from _common import emit

from repro.experiments import fig15


def main() -> None:
    emit("Figure 15 - CLEO vs cardinality feedback", fig15.run())


if __name__ == "__main__":
    main()
