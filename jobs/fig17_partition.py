"""Job entrypoint: Figure 17 - partition exploration efficacy.

Usage: python jobs/fig17_partition.py
"""
from _common import emit

from repro.experiments import fig17


def main() -> None:
    emit("Figure 17 - partition exploration efficacy", fig17.run())


if __name__ == "__main__":
    main()
