"""The command chain on a small generated scenario, every command run in
process through `crossrisk.cli.main`: each run's exit code, byte-identical
reruns, and exit 2 on bad inputs and outputs.

Two scenarios are generated once per session: the smoke spec (20 s, seed 3),
with its pixel copy, samples and trained bundle, and the tune spec (150 s,
seed 5) with its evaluated trace.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from crossrisk.cli import EXIT_INPUT, EXIT_OK, main
from crossrisk.stream import read_stream_csv
from crossrisk.synthgen import camera_pixel_of, reference_tile_grid

GRID = Path(__file__).resolve().parent.parent / "configs" / "grid.json"
SMOKE_SPEC = {"seed": 3, "duration_s": 20.0, "n_adults": 2, "n_kids": 1, "n_cyclists": 1}
TUNE_SPEC = {"seed": 5, "duration_s": 150.0, "n_adults": 16, "n_kids": 16, "n_cyclists": 16}
SMOKE_TRAIN = {"seed": 0, "hidden_size": 8, "epochs": 1, "patience": 0, "batch_size": 64}
EVAL_FILES = ("ppet_trace.csv", "risk_scenarios.jsonl", "summary.json", "metrics.json")
BUDGETS = ("--assert-budget", "33", "--assert-p99", "33")


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == EXIT_OK, argv


def exit_code(*argv) -> int:
    return main([str(a) for a in argv])


def same(a: Path, b: Path) -> None:
    assert a.read_bytes() == b.read_bytes(), (a, b)


def nonempty(*paths: Path) -> None:
    for path in paths:
        assert path.is_file() and path.stat().st_size > 0, path


def load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Smoke:
    """Paths of the smoke directory and the commands that read them."""

    def __init__(self, root: Path):
        self.root = root
        self.dir = root / "smoke"
        self.spec = root / "smoke_spec.json"
        self.stream = self.dir / "stream.csv"
        self.area_map = self.dir / "area_map.json"
        self.truth = self.dir / "ground_truth.json"
        self.pixel = self.dir / "stream_pixel.csv"
        self.grid = self.dir / "grid.json"
        self.samples = self.dir / "samples.jsonl"
        self.train_config = root / "smoke_train.json"
        self.bundle = self.dir / "bundle.json"

    def evaluate(self, out, *extra, stream=None):
        return ("evaluate", "--stream", stream or self.stream, "--area-map", self.area_map, *extra, "--out", out)

    def build_dataset(self, out):
        return ("build-dataset", "--stream", self.stream, "--area-map", self.area_map, "--truth", self.truth,
                "--out", out)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory) -> Smoke:
    """gen and evaluate --truth on the smoke spec; the pixel copy of its
    stream and the tile grid from homography; build-dataset and train."""
    s = Smoke(tmp_path_factory.mktemp("chain"))
    s.spec.write_text(json.dumps(SMOKE_SPEC), encoding="utf-8")
    s.train_config.write_text(json.dumps(SMOKE_TRAIN), encoding="utf-8")
    run("gen", "--spec", s.spec, "--out", s.dir)
    run(*s.evaluate(s.dir / "eval", "--truth", s.truth))

    frames = read_stream_csv(str(s.stream))
    with open(s.pixel, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "t", "id", "category", "u", "v"])
        for o in (o for f in sorted(frames) for o in frames[f]):
            p = camera_pixel_of(o.position)
            writer.writerow([o.frame, repr(o.t), o.agent_id, int(o.category), repr(p.u), repr(p.v)])
    anchors = [
        {"pixel": [[c.u, c.v] for c in t.pixel_region], "world": [[c.x, c.y] for c in t.world_region]}
        for t in reference_tile_grid().tiles
    ]
    (s.dir / "anchors.json").write_text(json.dumps(anchors), encoding="utf-8")
    run("homography", "--anchors", s.dir / "anchors.json", "--out", s.grid)

    run(*s.build_dataset(s.samples))
    run("train", "--dataset", s.samples, "--config", s.train_config, "--out", s.bundle,
        "--report", s.dir / "train_report.json")
    return s


@pytest.fixture(scope="session")
def tune(tmp_path_factory) -> Path:
    """gen and evaluate --truth on the tune spec; the merged_area grid."""
    root = tmp_path_factory.mktemp("tune")
    (root / "tune_spec.json").write_text(json.dumps(TUNE_SPEC), encoding="utf-8")
    run("gen", "--spec", root / "tune_spec.json", "--out", root)
    run("evaluate", "--stream", root / "stream.csv", "--area-map", root / "area_map.json",
        "--truth", root / "ground_truth.json", "--out", root / "eval")
    doc = load(GRID)
    merged = {"mode": "merged_area", "axes": {"merged": doc["axes"]["closer"]}, "theta": {"merged": doc["theta"]["closer"]}}
    (root / "grid_merged.json").write_text(json.dumps(merged), encoding="utf-8")
    return root


def tune_argv(root: Path, grid: Path, *outputs):
    return ("tune", "--trace", root / "eval" / "ppet_trace.csv", "--truth", root / "ground_truth.json",
            "--grid", grid, *outputs)


# --- world stream, baseline bundle ----------------------------------------------


def test_gen_then_evaluate_writes_summary_and_metrics(smoke):
    nonempty(smoke.dir / "eval" / "summary.json", smoke.dir / "eval" / "metrics.json")


def test_metrics_on_the_trace_prints_the_metrics_evaluate_wrote(smoke, capsys):
    capsys.readouterr()
    run("metrics", "--trace", smoke.dir / "eval" / "ppet_trace.csv", "--truth", smoke.truth)
    printed = json.loads(capsys.readouterr().out)
    printed.pop("counts")
    written = load(smoke.dir / "eval" / "metrics.json")
    assert printed == written


def test_evaluate_twice_gives_identical_outputs(smoke):
    run(*smoke.evaluate(smoke.dir / "eval_again", "--truth", smoke.truth))
    for name in EVAL_FILES:
        same(smoke.dir / "eval" / name, smoke.dir / "eval_again" / name)


def test_evaluate_with_the_baseline_bundle_is_within_budget(smoke):
    run(*smoke.evaluate(smoke.dir / "eval_budget", "--latency-out", smoke.dir / "latency_baseline.json", *BUDGETS))


# --- pixel stream ---------------------------------------------------------------


def test_pixel_stream_through_homography_evaluates_within_budget(smoke):
    run(*smoke.evaluate(smoke.dir / "eval_pixel", "--tile-grid", smoke.grid, "--truth", smoke.truth,
                        "--latency-out", smoke.dir / "latency_pixel.json", *BUDGETS, stream=smoke.pixel))
    nonempty(smoke.dir / "eval_pixel" / "summary.json")
    report = load(smoke.dir / "latency_pixel.json")
    assert "transform_ms" in report and "ingest_ms" in report, sorted(report)


# --- build-dataset, train and the trained bundle ----------------------------------


def test_samples_file_has_the_version_3_header(smoke):
    first = smoke.samples.read_text(encoding="utf-8").splitlines()[0]
    assert first == '{"format": "crossrisk-samples", "version": 3}'


def test_evaluate_with_the_trained_bundle(smoke):
    run(*smoke.evaluate(smoke.dir / "eval_models", "--models", smoke.bundle, "--truth", smoke.truth))
    nonempty(smoke.dir / "eval_models" / "summary.json", smoke.dir / "eval_models" / "metrics.json")


def test_evaluate_the_pixel_stream_with_the_trained_bundle_twice_gives_identical_traces(smoke):
    for name in "ab":
        run(*smoke.evaluate(smoke.dir / f"eval_pixel_models_{name}", "--tile-grid", smoke.grid,
                            "--models", smoke.bundle, "--truth", smoke.truth, stream=smoke.pixel))
    same(smoke.dir / "eval_pixel_models_a" / "ppet_trace.csv", smoke.dir / "eval_pixel_models_b" / "ppet_trace.csv")


def test_evaluate_with_the_trained_bundle_reports_the_tail(smoke):
    run(*smoke.evaluate(smoke.dir / "eval_models_budget", "--models", smoke.bundle,
                        "--latency-out", smoke.dir / "latency_models.json", *BUDGETS))
    report = load(smoke.dir / "latency_models.json")
    assert "safety_evaluation_p99_ms" in report and "ingest_ms" in report, sorted(report)


# --- reruns ------------------------------------------------------------------------


@pytest.fixture(scope="session")
def gen_again(smoke) -> Path:
    out = smoke.dir / "gen_again"
    run("gen", "--spec", smoke.spec, "--out", out)
    return out


def test_gen_twice_gives_identical_files(smoke, gen_again):
    for name in ("stream.csv", "ground_truth.json", "area_map.json"):
        same(smoke.dir / name, gen_again / name)


def test_build_dataset_twice_gives_identical_samples(smoke):
    run(*smoke.build_dataset(smoke.dir / "samples_again.jsonl"))
    same(smoke.samples, smoke.dir / "samples_again.jsonl")


def test_train_twice_gives_identical_bundles(smoke):
    run("train", "--dataset", smoke.samples, "--config", smoke.train_config, "--out", smoke.dir / "bundle_again.json")
    same(smoke.bundle, smoke.dir / "bundle_again.json")


# --- exit 2 ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, content, option",
    [
        ("bad_bundle.json", b'{"version": 1, "models": [{"category": null, "q": 0, "kind": "historical_average"}]}\n',
         "--models"),
        ("bad_thresholds.json", b'{"categories": []}\n', "--thresholds"),
        ("bad_stream.csv", b"frame,t,id,category,x,y\n0,0.0,a\xff,0,3.0,1.0\n", "--stream"),
    ],
    ids=["bundle", "thresholds", "stream"],
)
def test_evaluate_on_an_unreadable_input_exits_2(name, content, option, smoke):
    path = smoke.dir / name
    path.write_bytes(content)
    if option == "--stream":
        argv = smoke.evaluate(smoke.dir / "eval_bad", stream=path)
    else:
        argv = smoke.evaluate(smoke.dir / "eval_bad", option, path)
    assert exit_code(*argv) == EXIT_INPUT


def test_train_on_a_version_2_samples_file_exits_2(smoke):
    lines = smoke.samples.read_text(encoding="utf-8").splitlines(keepends=True)
    v2 = smoke.dir / "samples_v2.jsonl"
    v2.write_text('{"format": "crossrisk-samples", "version": 2}\n' + "".join(lines[1:]), encoding="utf-8")
    code = exit_code("train", "--dataset", v2, "--config", smoke.train_config, "--out", smoke.dir / "bundle_v2.json")
    assert code == EXIT_INPUT


def test_latency_report_into_a_directory_exits_2(smoke):
    assert exit_code(*smoke.evaluate(smoke.dir / "eval_latency_dir", "--latency-out", smoke.dir)) == EXIT_INPUT


def test_gen_and_evaluate_into_an_existing_file_exit_2(smoke, gen_again):
    assert exit_code("gen", "--spec", smoke.spec, "--out", smoke.stream) == EXIT_INPUT
    assert exit_code(*smoke.evaluate(smoke.stream)) == EXIT_INPUT
    same(smoke.stream, gen_again / "stream.csv")


def test_gen_and_build_dataset_below_an_existing_file_exit_2(smoke, gen_again):
    assert exit_code("gen", "--spec", smoke.spec, "--out", smoke.stream / "sub") == EXIT_INPUT
    assert exit_code(*smoke.build_dataset(smoke.stream / "s.jsonl")) == EXIT_INPUT
    same(smoke.stream, gen_again / "stream.csv")


# --- tune ---------------------------------------------------------------------------


def test_tune_twice_gives_identical_calibration_and_points(tune):
    for name in "ab":
        run(*tune_argv(tune, GRID, "--out", tune / f"calibration_{name}.json", "--points-csv", tune / f"points_{name}.csv"))
    same(tune / "calibration_a.json", tune / "calibration_b.json")
    same(tune / "points_a.csv", tune / "points_b.csv")


def test_tune_twice_with_a_merged_area_grid_gives_identical_files(tune):
    for name in "ab":
        run(*tune_argv(tune, tune / "grid_merged.json", "--out", tune / f"calibration_merged_{name}.json",
                       "--points-csv", tune / f"points_merged_{name}.csv"))
    same(tune / "calibration_merged_a.json", tune / "calibration_merged_b.json")
    same(tune / "points_merged_a.csv", tune / "points_merged_b.csv")
    assert load(tune / "calibration_merged_a.json")["mode"] == "merged_area"


def test_tuned_thresholds_are_written_identically_and_load_in_evaluate_and_metrics(tune):
    for name in "ab":
        run(*tune_argv(tune, GRID, "--out", tune / f"calibration_thresholds_{name}.json",
                       "--thresholds-out", tune / f"thresholds_{name}.json"))
    same(tune / "thresholds_a.json", tune / "thresholds_b.json")
    run("evaluate", "--stream", tune / "stream.csv", "--area-map", tune / "area_map.json",
        "--thresholds", tune / "thresholds_a.json", "--truth", tune / "ground_truth.json", "--out", tune / "eval_tuned")
    nonempty(tune / "eval_tuned" / "summary.json", tune / "eval_tuned" / "metrics.json")
    run("metrics", "--trace", tune / "eval" / "ppet_trace.csv", "--truth", tune / "ground_truth.json",
        "--thresholds", tune / "thresholds_a.json")
