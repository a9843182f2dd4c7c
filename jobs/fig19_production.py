"""Job entrypoint: Figure 19 - production replanning with CLEO.

Usage: python jobs/fig19_production.py
"""
from _common import emit

from repro.experiments import fig19


def main() -> None:
    emit("Figure 19 - production replanning with CLEO", fig19.run())


if __name__ == "__main__":
    main()
