"""The benchmark under perfbench/ imports crossrisk names, traces its
functions by name, reads its own config files and passes argv to the CLI;
a rename, a removed option or a stricter input check must fail here rather
than in the benchmark."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from crossrisk.calibration import GridSpec
from crossrisk.cli import build_parser
from crossrisk.files import read_json
from crossrisk.predictors import TrainingConfig
from crossrisk.synthgen import ScenarioSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIG_FILES = sorted((PERFBENCH / "config").glob("*.json"))


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    targets = tracing.gen_targets() + tracing.all_targets()
    assert targets
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.name for p in CONFIG_FILES])
def test_benchmark_config_files_load(path):
    """Each config file loads with the loader of the command that reads it:
    grid.json is tune's --grid, train.json is train's --config, and every
    other file is a gen --spec."""
    loaders = {
        "grid.json": GridSpec.load,
        "train.json": lambda p: read_json(p, "training config", lambda doc: TrainingConfig(**doc)),
    }
    loaders.get(path.name, ScenarioSpec.load)(str(path))


def test_benchmark_argv_parses(monkeypatch):
    """The argv forms the offline-chain repetition passes to the CLI."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    folds = importlib.import_module("common").TUNE_FOLDS
    parser = build_parser()
    forms = [
        ["gen", "--spec", "offline.json", "--seed", "7", "--out", "work"],
        ["build-dataset", "--stream", "stream.csv", "--area-map", "area_map.json", "--truth", "truth.json",
         "--out", "samples.jsonl"],
        ["train", "--dataset", "samples.jsonl", "--config", "train.json", "--out", "bundle.json"],
        ["tune", "--trace", "trace.csv", "--truth", "truth.json", "--grid", "grid.json", "--k", str(folds),
         "--out", "calibration.json"],
    ]
    parsed = [parser.parse_args(argv) for argv in forms]
    assert [args.command for args in parsed] == ["gen", "build-dataset", "train", "tune"]
    assert (parsed[0].seed, parsed[1].truth, parsed[2].config, parsed[3].k) == (7, "truth.json", "train.json", folds)
