"""The benchmark under perfbench/ imports crossrisk names, traces its
functions by name, reads its own config files and passes argv to the CLI;
a rename, a removed option or a stricter input check must fail here rather
than in the benchmark."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from crossrisk.calibration import GridSpec, grid_search
from crossrisk.cli import build_parser
from crossrisk.files import read_json
from crossrisk.pipeline import RiskPipeline
from crossrisk.predictors import RecurrentRegressor, TrainedModelBundle, TrainingConfig
from crossrisk.risk import DecisionKind, RiskThresholdConfig
from crossrisk.synthgen import ScenarioSpec, generate, reference_area_map

from helpers import planted_episodes, planted_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIG_FILES = sorted((PERFBENCH / "config").glob("*.json"))


def test_recorded_output_digests_name_every_workload(monkeypatch):
    """CI compares each workload's seed-7 output digest with this file."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    recorded = json.loads((Path(__file__).parent / "perfbench_digests.json").read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(importlib.import_module("common").WORKLOADS)
    assert all(len(digest) == 64 for digest in recorded.values())


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


def test_benchmark_bundle_loads_and_the_run_state_it_reads_exists(monkeypatch, tmp_path):
    """The random GRU bundle perfbench/inputs.py writes loads through
    TrainedModelBundle.load, and a run with it has every attribute that the
    tracing hooks and the output checks read after the run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("inputs").write_gru_bundle(tmp_path / "bundle.json", 7)
    bundle = TrainedModelBundle.load(str(tmp_path / "bundle.json"))
    assert all(isinstance(p, RecurrentRegressor) for p in bundle.predictors.values())

    frames, _ = generate(ScenarioSpec(seed=3, duration_s=20.0, n_adults=2, n_kids=1, n_cyclists=1))
    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
    for frame in range(max(frames) + 1):
        pipeline.process_frame(frame, frames.get(frame, []))
    assert len(pipeline.engine.buffers) > 0  # the stream.agents_in_areas hook and Rep.outputs
    vectors = pipeline.result.vectors_by_ped  # Rep.outputs and flag_mismatches
    assert vectors and len(pipeline.engine.pedestrians) >= len(vectors)
    assert {pipeline.engine.pedestrians[ped_id].category for ped_id in vectors}
    assert DecisionKind.RISK2_FLAGGED  # the risk.step_evaluate hook
    assert grid_search(planted_episodes(20), planted_grid(0.5), k=2, seed=0).rows  # the grid_search hook
