"""Job entrypoint: Tables 2+3 - selected features and influence.

Usage: python jobs/table23_features.py
"""
from _common import emit

from repro.experiments import table23


def main() -> None:
    emit("Tables 2+3 - selected features and influence", table23.run())


if __name__ == "__main__":
    main()
