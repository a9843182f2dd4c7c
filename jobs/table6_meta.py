"""Job entrypoint: Table 6 - meta-learners for the combined model.

Usage: python jobs/table6_meta.py
"""
from _common import emit

from repro.experiments import table6


def main() -> None:
    emit("Table 6 - meta-learners for the combined model", table6.run())


if __name__ == "__main__":
    main()
