"""Job entrypoint: Table 5 - learned model families.

Usage: python jobs/table5_families.py
"""
from _common import emit

from repro.experiments import table5


def main() -> None:
    emit("Table 5 - learned model families", table5.run())


if __name__ == "__main__":
    main()
