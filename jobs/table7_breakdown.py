"""Job entrypoint: Table 7 - all vs ad-hoc breakdown (cluster1).

Usage: python jobs/table7_breakdown.py
"""
from _common import emit

from repro.experiments import table7


def main() -> None:
    emit("Table 7 - all vs ad-hoc breakdown (cluster1)", table7.run())


if __name__ == "__main__":
    main()
