"""The benchmark's contract with the program: every name ``cleobench/``
imports or wraps resolves, and every workload ``BENCHMARK.json`` names
exists."""
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture()
def cleobench(monkeypatch):
    """The benchmark's modules, imported as ``cleobench/run.py`` does."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "cleobench"))
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


def test_every_wrapped_name_resolves(cleobench):
    layers, tracing, _ = cleobench
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert callable(orig) and getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.unwrap_all()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patches)


def test_benchmark_workloads_exist(cleobench):
    _, _, workloads = cleobench
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)

