"""Command-line surface: scenario generation, homography calibration, dataset
building, training, streaming evaluation, threshold tuning and timed replay.

Exit codes: 0 success, 2 input error, 3 latency budget violation, 4 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .calibration import ConfusionCounts, Episode, GridSpec, confusion, grid_search, metrics
from .errors import BudgetExceeded, CrossRiskError, DegenerateAnchors, ManifestError
from .geometry import (
    HomographyTile,
    PixelPoint,
    TileGrid,
    WorldPoint,
    load_area_map,
    load_tile_grid,
    project_point,
    save_area_map,
    save_tile_grid,
    solve_homography,
    transform_point,
)
from .pipeline import (
    RiskPipeline,
    latency_report,
    read_trace_csv,
    write_risk_scenarios,
    write_trace_csv,
)
from .ppet import PPetVector
from .predictors import (
    AgentAnnotation,
    TrainedModelBundle,
    TrainingConfig,
    build_labeled_dataset,
    train_bundle,
)
from .predictors.dataset import read_samples_jsonl, write_samples_jsonl
from .risk import AreaRole, RiskLevel, RiskThresholdConfig
from .stream import (
    Observation,
    StreamRow,
    agent_trajectories,
    read_stream_csv,
    read_stream_rows,
    write_stream_csv,
)
from .synthgen import GroundTruth, ScenarioSpec, generate, reference_area_map

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _require(path: str | None, what: str) -> Path:
    if not path or not Path(path).is_file():
        raise ManifestError(f"{what} not found: {path}")
    return Path(path)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- gen ------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.spec:
        spec = ScenarioSpec.load(str(_require(args.spec, "scenario spec")))
    else:
        spec = ScenarioSpec()
    if args.seed is not None:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frames, truth = generate(spec)
    ordered = [frames[k] for k in sorted(frames)]
    write_stream_csv(str(out / "stream.csv"), ordered)
    truth.save(str(out / "ground_truth.json"))
    save_area_map(str(out / "area_map.json"), reference_area_map())
    print(f"gen: {sum(len(v) for v in ordered)} observations, "
          f"{len(truth.agents)} agents -> {out}")
    return EXIT_OK


# --- homography -------------------------------------------------------------------


def cmd_homography(args: argparse.Namespace) -> int:
    path = _require(args.anchors, "anchors file")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, list) or not raw:
        raise ManifestError(f"{path}: expected a non-empty JSON array of tiles")
    tiles = []
    max_residual = 0.0
    for idx, entry in enumerate(raw):
        try:
            pixel = tuple(PixelPoint(float(u), float(v)) for u, v in entry["pixel"])
            world = tuple(WorldPoint(float(x), float(y)) for x, y in entry["world"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: tile {idx} malformed: {exc}") from exc
        try:
            matrix = solve_homography(pixel, world)
        except DegenerateAnchors as exc:
            raise ManifestError(f"{path}: tile {idx}: {exc}") from exc
        for p, w in zip(pixel, world):
            x, y = project_point(matrix, p.u, p.v)
            max_residual = max(max_residual, float(np.hypot(x - w.x, y - w.y)))
        tiles.append(HomographyTile(pixel, matrix, world))
    grid = TileGrid(tuple(tiles))
    save_tile_grid(args.out, grid)
    print(f"homography: {len(tiles)} tiles, max corner residual {max_residual:.3e} m")
    return EXIT_OK


# --- build-dataset ------------------------------------------------------------------


def _load_stream(args: argparse.Namespace) -> dict[int, list[Observation]]:
    grid = load_tile_grid(str(_require(args.tile_grid, "tile grid"))) if args.tile_grid else None
    return read_stream_csv(str(_require(args.stream, "stream file")), grid)


def _annotations_from_truth(truth: GroundTruth) -> dict[str, AgentAnnotation]:
    notes = {}
    for agent_id, agent in truth.agents.items():
        levels = [
            int(level)
            for (ped_id, _), level in truth.risk.items()
            if ped_id == agent_id
        ]
        notes[agent_id] = AgentAnnotation(
            awareness=agent.awareness,
            reaction=agent.reaction,
            risk_level=max(levels) if levels else 1,
        )
    return notes


def cmd_build_dataset(args: argparse.Namespace) -> int:
    area_map = load_area_map(str(_require(args.area_map, "area map")))
    frames = _load_stream(args)
    annotations = None
    if args.truth:
        annotations = _annotations_from_truth(GroundTruth.load(str(_require(args.truth, "ground truth"))))
    trajectories = agent_trajectories(frames)
    samples = build_labeled_dataset(trajectories, area_map, annotations=annotations)
    write_samples_jsonl(args.out, samples)
    print(f"build-dataset: {len(samples)} samples from {len(trajectories)} trajectories")
    return EXIT_OK


# --- train --------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    samples = read_samples_jsonl(str(_require(args.dataset, "dataset")))
    config = TrainingConfig()
    if args.config:
        with open(_require(args.config, "training config"), encoding="utf-8") as fh:
            try:
                config = TrainingConfig(**json.load(fh))
            except (TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ManifestError(f"bad training config {args.config}: {exc}") from exc
    if args.seed is not None:
        config = TrainingConfig(**{**config.__dict__, "seed": args.seed})
    bundle, report = train_bundle(samples, config)
    bundle.save(args.out)
    if args.report:
        _write_json(args.report, report)
    print(f"train: {len(bundle.predictors)} predictors -> {args.out}")
    return EXIT_OK


# --- evaluate -------------------------------------------------------------------------


def _load_thresholds(args: argparse.Namespace) -> RiskThresholdConfig:
    if getattr(args, "thresholds", None):
        return RiskThresholdConfig.load(str(_require(args.thresholds, "threshold config")))
    return RiskThresholdConfig.default()


def _load_bundle(args: argparse.Namespace) -> TrainedModelBundle:
    if getattr(args, "models", None):
        return TrainedModelBundle.load(str(_require(args.models, "model bundle")))
    return TrainedModelBundle.historical_average()


def cmd_evaluate(args: argparse.Namespace) -> int:
    area_map = load_area_map(str(_require(args.area_map, "area map")))
    thresholds = _load_thresholds(args)
    bundle = _load_bundle(args)
    frames = _load_stream(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    pipeline = RiskPipeline(area_map, thresholds, bundle, fps=args.fps)
    result = pipeline.run(frames)
    write_risk_scenarios(str(out / "risk_scenarios.jsonl"), result.risk_scenarios)
    write_trace_csv(str(out / "ppet_trace.csv"), result.trace)

    summary = {
        "frames": len(frames),
        "risk_scenarios": len(result.risk_scenarios),
        "evaluated_pedestrians": len(result.vectors_by_ped),
    }
    if args.truth:
        truth = GroundTruth.load(str(_require(args.truth, "ground truth")))
        counts = confusion(_truth_episodes(truth, result.vectors_by_ped), thresholds)
        summary["metrics"] = metrics(counts).to_dict()
        _write_json(str(out / "metrics.json"), summary["metrics"])
    _write_json(str(out / "summary.json"), summary)
    print(f"evaluate: {summary['risk_scenarios']} risk scenarios "
          f"over {summary['evaluated_pedestrians']} pedestrians -> {out}")
    return EXIT_OK


# --- tune -----------------------------------------------------------------------------


def _truth_episodes(truth: GroundTruth, vectors: dict[str, list[PPetVector]]) -> list[Episode]:
    """One episode per labeled pedestrian of the ground truth, by id; a
    pedestrian without a trace gets an empty one."""
    labels: dict[str, dict[AreaRole, RiskLevel]] = {}
    for (ped_id, role), level in sorted(truth.risk.items()):
        if ped_id in truth.agents:
            labels.setdefault(ped_id, {})[AreaRole(role)] = level
    return [
        Episode(ped_id, truth.agents[ped_id].category, tuple(vectors.get(ped_id, ())), ped_labels)
        for ped_id, ped_labels in labels.items()
    ]


def _episodes_from_files(trace_path: str, truth_path: str) -> list[Episode]:
    """Episodes of the traced pedestrians labeled in both areas."""
    vectors = read_trace_csv(str(_require(trace_path, "trace file")))
    truth = GroundTruth.load(str(_require(truth_path, "ground truth")))
    both = {AreaRole.CLOSER, AreaRole.FURTHER}
    return [
        e for e in _truth_episodes(truth, vectors)
        if e.ped_id in vectors and set(e.labels) == both
    ]


def cmd_tune(args: argparse.Namespace) -> int:
    episodes = _episodes_from_files(args.trace, args.truth)
    grid_doc, grid, mode = GridSpec.load(str(_require(args.grid, "grid spec")))
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
        with open(args.points_csv, "w", encoding="utf-8", newline="\n") as fh:
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
    return read_stream_rows(path)[1]


def cmd_replay(args: argparse.Namespace) -> int:
    area_map = load_area_map(str(_require(args.area_map, "area map")))
    thresholds = _load_thresholds(args)
    bundle = _load_bundle(args)
    point, rows = read_stream_rows(str(_require(args.stream, "stream file")))
    pixel = point is PixelPoint
    grid = load_tile_grid(str(_require(args.tile_grid, "tile grid"))) if pixel else None

    pipeline = RiskPipeline(area_map, thresholds, bundle, fps=args.fps)
    transform_ms: list[float] = []
    if rows:
        frame_period = 1.0 / args.fps
        wall_start = time.perf_counter()
        for index, frame in enumerate(range(min(rows), max(rows) + 1)):
            t0 = time.perf_counter()
            observations = [
                Observation(frame, t, agent_id, category, transform_point(grid, p) if pixel else p)
                for (t, agent_id, category, p) in rows.get(frame, [])
            ]
            if pixel:
                transform_ms.append((time.perf_counter() - t0) * 1000.0)
            pipeline.process_frame(frame, observations)
            if args.realtime:
                target = wall_start + (index + 1) * frame_period
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)

    report = latency_report(
        pipeline.result.prediction_ms, pipeline.result.ppet_risk_ms, transform_ms
    )
    doc = report.to_dict()
    doc["risk_scenarios"] = len(pipeline.result.risk_scenarios)
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.assert_budget is not None and report.safety_eval_mean_ms >= args.assert_budget:
        raise BudgetExceeded(
            f"safety evaluation mean {report.safety_eval_mean_ms:.3f} ms "
            f">= budget {args.assert_budget} ms"
        )
    if args.assert_p99 is not None and report.safety_eval_p99_ms >= args.assert_p99:
        raise BudgetExceeded(
            f"safety evaluation p99 {report.safety_eval_p99_ms:.3f} ms "
            f">= budget {args.assert_p99} ms"
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="Pedestrian crossing-risk evaluation from trajectory streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="Override the seed")
    common.add_argument("--fps", type=float, default=30.0, help="Frame rate (default 30)")

    p = sub.add_parser("gen", parents=[common], help="Generate a synthetic scenario")
    p.add_argument("--spec", help="Scenario spec JSON (defaults when omitted)")
    p.add_argument("--out", default=".", help="Output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("homography", help="Solve per-tile projective maps from anchors")
    p.add_argument("--anchors", required=True, help="Anchor tiles JSON")
    p.add_argument("--out", required=True, help="Tile-grid output JSON")
    p.set_defaults(func=cmd_homography)

    p = sub.add_parser("build-dataset", parents=[common], help="Windows + arrival-time labels")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--truth", help="Ground-truth JSON with annotations")
    p.add_argument("--tile-grid", help="Tile grid for pixel streams")
    p.add_argument("--out", required=True, help="Labeled samples JSONL output")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", parents=[common], help="Train and select per-pair predictors")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="Training config JSON")
    p.add_argument("--out", required=True, help="Model bundle output JSON")
    p.add_argument("--report", help="Validation MAE report JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="Streaming risk evaluation")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--thresholds", help="Threshold config JSON (defaults when omitted)")
    p.add_argument("--models", help="Model bundle JSON (baseline-only when omitted)")
    p.add_argument("--truth", help="Ground truth for metrics")
    p.add_argument("--tile-grid", help="Tile grid for pixel streams")
    p.add_argument("--out", default=".", help="Output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", parents=[common], help="Grid-search thresholds with k-fold CV")
    p.add_argument("--trace", required=True, help="P-PET trace CSV from evaluate")
    p.add_argument("--truth", required=True)
    p.add_argument("--grid", required=True, help="Grid spec JSON; its mode (default per_area) sets the threshold mode")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True, help="Calibration report JSON")
    p.add_argument("--thresholds-out", help="Write the best config as a threshold file")
    p.add_argument("--points-csv", help="Per-grid-point accuracies CSV")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("replay", parents=[common], help="Timed replay of a stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--area-map", required=True)
    p.add_argument("--thresholds")
    p.add_argument("--models")
    p.add_argument("--tile-grid")
    p.add_argument("--realtime", action="store_true", help="Pace frames to the frame rate")
    p.add_argument("--assert-budget", type=float, default=None, metavar="MS",
                   help="Fail (exit 3) when mean safety evaluation >= MS")
    p.add_argument("--assert-p99", type=float, default=None, metavar="MS",
                   help="Fail (exit 3) when the per-frame safety evaluation p99 >= MS")
    p.add_argument("--out", help="Latency report JSON")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("metrics", parents=[common], help="Classification metrics")
    p.add_argument("--tp", type=int)
    p.add_argument("--tn", type=int)
    p.add_argument("--fp", type=int)
    p.add_argument("--fn", type=int)
    p.add_argument("--trace", help="P-PET trace CSV")
    p.add_argument("--truth", help="Ground truth JSON")
    p.add_argument("--thresholds", help="Threshold config JSON")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CrossRiskError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
