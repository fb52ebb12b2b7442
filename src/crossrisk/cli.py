"""Command-line surface: scenario generation, homography calibration, dataset
building, training, streaming evaluation, threshold tuning and timed replay.

Exit codes: 0 success, 2 input error, 3 latency budget violation, 4 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import json
import math
import sys
from functools import partial
from pathlib import Path

from .calibration import ConfusionCounts, Episode, GridSpec, confusion, grid_search, metrics, truth_episodes
from .errors import BudgetExceeded, CrossRiskError, ManifestError
from .files import open_output, read_json, write_json
from .geometry import AreaMap, load_area_map, load_tile_grid, save_area_map, save_tile_grid
from .pipeline import (
    RiskPipeline,
    latency_report,
    read_trace_csv,
    write_risk_scenarios,
    write_trace_csv,
)
from .predictors import TrainedModelBundle, TrainingConfig, build_labeled_dataset, train_bundle
from .predictors.dataset import read_samples_jsonl, write_samples_jsonl
from .risk import RiskThresholdConfig
from .stream import StreamRow, agent_tracks, open_stream, read_frames, target_line_table, write_stream_csv
from .synthgen import GroundTruth, ScenarioSpec, generate, reference_area_map

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_area_map(path: str) -> AreaMap:
    """The area map at path, checked to hold every target line an agent can need."""
    area_map = load_area_map(path)
    try:
        target_line_table(area_map)
    except KeyError as exc:
        raise ManifestError(f"{path}: {exc.args[0]}") from None
    return area_map


_write_json = partial(write_json, indent=2, sort_keys=True)


# --- gen ------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.spec:
        spec = ScenarioSpec.load(args.spec)
    else:
        spec = ScenarioSpec()
    if args.seed is not None:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    out = Path(args.out)
    frames, truth = generate(spec)
    write_stream_csv(str(out / "stream.csv"), frames.values())
    truth.save(str(out / "ground_truth.json"))
    save_area_map(str(out / "area_map.json"), reference_area_map())
    print(f"gen: {sum(map(len, frames.values()))} observations, "
          f"{len(truth.agents)} agents -> {out}")
    return EXIT_OK


# --- homography -------------------------------------------------------------------


def cmd_homography(args: argparse.Namespace) -> int:
    grid = load_tile_grid(args.anchors)
    max_residual = max(
        tile.transform(p).distance_to(w)
        for tile in grid.tiles
        for p, w in zip(tile.pixel_region, tile.world_region)
    )
    save_tile_grid(args.out, grid)
    print(f"homography: {len(grid.tiles)} tiles, max corner residual {max_residual:.3e} m")
    return EXIT_OK


# --- build-dataset ------------------------------------------------------------------


def cmd_build_dataset(args: argparse.Namespace) -> int:
    area_map = _load_area_map(args.area_map)
    truth = GroundTruth.load(args.truth) if args.truth else GroundTruth()
    awareness = {agent_id: agent.awareness for agent_id, agent in truth.agents.items()}
    tracks = agent_tracks(read_frames(args.stream, args.tile_grid)[0], area_map)
    samples = build_labeled_dataset(tracks, awareness)
    write_samples_jsonl(args.out, samples)
    print(f"build-dataset: {len(samples)} samples from {len(tracks)} trajectories")
    return EXIT_OK


# --- train --------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainingConfig()
    if args.config:
        config = read_json(args.config, "training config", lambda doc: TrainingConfig(**doc))
    if args.seed is not None:
        config = TrainingConfig(**{**config.__dict__, "seed": args.seed})
    samples = read_samples_jsonl(args.dataset)
    bundle, report = train_bundle(samples, config)
    bundle.save(args.out)
    if args.report:
        _write_json(args.report, report)
    print(f"train: {len(bundle.predictors)} predictors -> {args.out}")
    return EXIT_OK


# --- evaluate -------------------------------------------------------------------------


def _load_thresholds(args: argparse.Namespace) -> RiskThresholdConfig:
    if getattr(args, "thresholds", None):
        return RiskThresholdConfig.load(args.thresholds)
    return RiskThresholdConfig.default()


def _load_bundle(args: argparse.Namespace) -> TrainedModelBundle:
    if getattr(args, "models", None):
        return TrainedModelBundle.load(args.models)
    return TrainedModelBundle.historical_average()


def _run_stream(args: argparse.Namespace, realtime: bool = False) -> tuple[RiskPipeline, list[float]]:
    """Load the area map, thresholds and bundle of evaluate or replay, and run
    the stream through one pipeline as its frames are read, under gc.freeze():
    no full collection walks the bundle, area map or pipeline inside a frame.
    Returns the pipeline and the transform times, one per frame with rows."""
    area_map = _load_area_map(args.area_map)
    thresholds = _load_thresholds(args)
    bundle = _load_bundle(args)
    frames, transform_ms = read_frames(args.stream, args.tile_grid)
    pipeline = RiskPipeline(area_map, thresholds, bundle)
    gc.freeze()
    try:
        pipeline.run(frames, realtime)
    finally:
        gc.unfreeze()
    return pipeline, transform_ms


def cmd_evaluate(args: argparse.Namespace) -> int:
    truth = GroundTruth.load(args.truth) if args.truth else None
    pipeline, transform_ms = _run_stream(args)
    result = pipeline.result
    out = Path(args.out)
    write_risk_scenarios(str(out / "risk_scenarios.jsonl"), result.risk_scenarios)
    write_trace_csv(str(out / "ppet_trace.csv"), result.trace)

    vectors = result.vectors_by_ped
    summary = {
        "frames": len(transform_ms),
        "risk_scenarios": len(result.risk_scenarios),
        "evaluated_pedestrians": len(vectors),
    }
    if truth is not None:
        counts = confusion(truth_episodes(truth, vectors), pipeline.thresholds)
        summary["metrics"] = metrics(counts).to_dict()
        _write_json(str(out / "metrics.json"), summary["metrics"])
    _write_json(str(out / "summary.json"), summary)
    print(f"evaluate: {summary['risk_scenarios']} risk scenarios "
          f"over {summary['evaluated_pedestrians']} pedestrians -> {out}")
    return EXIT_OK


# --- tune -----------------------------------------------------------------------------


def _episodes_from_files(trace_path: str, truth_path: str) -> list[Episode]:
    vectors = read_trace_csv(trace_path)
    truth = GroundTruth.load(truth_path)
    return truth_episodes(truth, vectors)


def cmd_tune(args: argparse.Namespace) -> int:
    episodes = _episodes_from_files(args.trace, args.truth)
    grid_doc, grid, mode = GridSpec.load(args.grid)
    seed = args.seed if args.seed is not None else 0
    result = grid_search(episodes, grid, k=args.k, seed=seed, mode=mode)
    report = {
        "seed": result.seed,
        "mode": mode.value,
        "episodes": len(episodes),
        "cv_accuracy": {
            f"i={int(cat)},{role.value}": acc
            for (cat, role), acc in result.cv_accuracy.items()
        },
        "test_metrics": result.test_metrics.to_dict(),
        "best_config": result.config.to_dict(),
        "grid_spec": grid_doc,
    }
    _write_json(args.out, report)
    if args.thresholds_out:
        result.config.save(args.thresholds_out)
    if args.points_csv:
        with open_output(args.points_csv) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["category", "area", "alpha_pf", "beta_pf", "alpha_vf", "beta_vf", "theta", "cv_accuracy"]
            )
            for row in result.rows:
                writer.writerow(
                    [int(row.category), row.role.value, row.pf.alpha, row.pf.beta,
                     row.vf.alpha, row.vf.beta, row.theta, row.cv_accuracy]
                )
    print(f"tune: searched {len(result.rows)} grid points over {len(episodes)} episodes")
    return EXIT_OK


# --- replay ---------------------------------------------------------------------------


# perfbench/workloads.py reads its pixel recordings, untransformed, through this name.
def _read_pixel_rows(path: str) -> dict[int, list[StreamRow]]:
    with open_stream(path) as (_, frames):
        return dict(frames)


def cmd_replay(args: argparse.Namespace) -> int:
    pipeline, transform_ms = _run_stream(args, args.realtime)
    result = pipeline.result
    doc = latency_report(result.prediction_ms, result.ppet_risk_ms, transform_ms, result.ingest_ms)
    doc["risk_scenarios"] = len(result.risk_scenarios)
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    for gate, budget in (("mean", args.assert_budget), ("p99", args.assert_p99)):
        value = doc[f"safety_evaluation_{gate}_ms"]
        if budget is not None and value >= budget:
            raise BudgetExceeded(f"safety evaluation {gate} {value:.3f} ms >= budget {budget} ms")
    return EXIT_OK


# --- metrics --------------------------------------------------------------------------


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.trace and args.truth:
        thresholds = _load_thresholds(args)
        counts = confusion(_episodes_from_files(args.trace, args.truth), thresholds)
    elif None not in (args.tp, args.tn, args.fp, args.fn):
        counts = ConfusionCounts(args.tp, args.tn, args.fp, args.fn)
    else:
        raise ManifestError("metrics needs either --tp/--tn/--fp/--fn or --trace with --truth")
    doc = metrics(counts).to_dict()
    doc["counts"] = {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# --- parser ---------------------------------------------------------------------------


def _checked(convert, ok, what: str):
    """An argparse type: the text converted, rejected unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_count = _checked(int, lambda n: n >= 0, "a whole number of 0 or more")
_budget_ms = _checked(float, lambda ms: math.isfinite(ms) and ms > 0, "a finite number of milliseconds above 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="Pedestrian crossing-risk evaluation from trajectory streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the shared flags it reads
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_count, default=None, help="Override the seed")

    p = sub.add_parser("gen", parents=[seeded], help="Generate a synthetic scenario")
    p.add_argument("--spec", help="Scenario spec JSON (defaults when omitted)")
    p.add_argument("--out", default=".", help="Output directory")
    p.set_defaults(func=cmd_gen, dir_outputs=("out",))

    p = sub.add_parser("homography", help="Solve per-tile projective maps from anchors")
    p.add_argument("--anchors", required=True, help="Anchor tiles JSON")
    p.add_argument("--out", required=True, help="Tile-grid output JSON")
    p.set_defaults(func=cmd_homography, file_outputs=("out",))

    p = sub.add_parser("build-dataset", help="Windows + arrival-time labels")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--truth", help="Ground-truth JSON with annotations")
    p.add_argument("--tile-grid", help="Tile grid for pixel streams")
    p.add_argument("--out", required=True, help="Labeled samples JSONL output")
    p.set_defaults(func=cmd_build_dataset, file_outputs=("out",))

    p = sub.add_parser("train", parents=[seeded], help="Train and select per-pair predictors")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="Training config JSON")
    p.add_argument("--out", required=True, help="Model bundle output JSON")
    p.add_argument("--report", help="Validation MAE report JSON")
    p.set_defaults(func=cmd_train, file_outputs=("out", "report"))

    p = sub.add_parser("evaluate", help="Streaming risk evaluation")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--thresholds", help="Threshold config JSON (defaults when omitted)")
    p.add_argument("--models", help="Model bundle JSON (baseline-only when omitted)")
    p.add_argument("--truth", help="Ground truth for metrics")
    p.add_argument("--tile-grid", help="Tile grid for pixel streams")
    p.add_argument("--out", default=".", help="Output directory")
    p.set_defaults(func=cmd_evaluate, dir_outputs=("out",))

    p = sub.add_parser("tune", parents=[seeded], help="Grid-search thresholds with k-fold CV")
    p.add_argument("--trace", required=True, help="P-PET trace CSV from evaluate")
    p.add_argument("--truth", required=True)
    p.add_argument("--grid", required=True, help="Grid spec JSON; its mode (default per_area) sets the threshold mode")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, help="Calibration report JSON")
    p.add_argument("--thresholds-out", help="Write the best config as a threshold file")
    p.add_argument("--points-csv", help="Per-grid-point accuracies CSV")
    p.set_defaults(func=cmd_tune, file_outputs=("out", "thresholds_out", "points_csv"))

    p = sub.add_parser("replay", help="Timed replay of a stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--thresholds")
    p.add_argument("--models")
    p.add_argument("--tile-grid")
    p.add_argument("--realtime", action="store_true", help="Pace frames to the frame rate")
    p.add_argument("--assert-budget", type=_budget_ms, default=None, metavar="MS",
                   help="Fail (exit 3) when mean safety evaluation >= MS")
    p.add_argument("--assert-p99", type=_budget_ms, default=None, metavar="MS",
                   help="Fail (exit 3) when the per-frame safety evaluation p99 >= MS")
    p.add_argument("--out", help="Latency report JSON")
    p.set_defaults(func=cmd_replay, file_outputs=("out",))

    p = sub.add_parser("metrics", help="Classification metrics")
    for count in ("--tp", "--tn", "--fp", "--fn"):
        p.add_argument(count, type=_count)
    p.add_argument("--trace", help="P-PET trace CSV")
    p.add_argument("--truth", help="Ground truth JSON")
    p.add_argument("--thresholds", help="Threshold config JSON")
    p.set_defaults(func=cmd_metrics)

    return parser


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise IsADirectoryError for a file output of the command that names an
    existing directory, and NotADirectoryError for an output whose nearest
    existing ancestor (for a directory output, the path itself when it
    exists) is not a directory, before the command reads anything."""
    outputs = [(getattr(args, dest), True) for dest in getattr(args, "file_outputs", ())]
    outputs += [(getattr(args, dest), False) for dest in getattr(args, "dir_outputs", ())]
    for path, is_file in outputs:
        if path is None:
            continue
        if is_file and Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
        start = Path(path).parent if is_file else Path(path)
        if not next(p for p in (start, *start.parents) if p.exists()).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CrossRiskError, OSError) as exc:  # inputs raise ManifestError, so an OSError is an output's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
