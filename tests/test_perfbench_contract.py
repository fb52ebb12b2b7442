"""The benchmark under perfbench/ imports crossrisk names and traces its
functions by name; a rename must fail here rather than in the benchmark."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    targets = tracing.gen_targets() + tracing.all_targets()
    assert targets
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
