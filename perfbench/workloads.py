"""The workloads: set-up, one repetition, and the output checks.

Every workload is a closed loop with one client: one process, one thread,
and the next frame (or command) is handed over as soon as the previous one
returns. A repetition is the workload's fixed unit of work, so every
repetition of one seed does the same work:

- stream-pixel-gru: each generated recording, frame by frame, through
  `RiskPipeline.process_frame` on a freshly built pipeline;
- offline-chain: `gen`, `build-dataset` and `train` on the first scenario,
  the frame loop with the baseline bundle over it and over world scenarios
  (the first one's trace is what `evaluate` writes), and `tune` on that
  trace.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from common import CONFIG_DIR, GEN_FILES, OFFLINE_FRAME_SUBS, TUNE_FOLDS, Workload, file_digest

from crossrisk import geometry
from crossrisk.cli import _read_pixel_rows
from crossrisk.cli import main as crossrisk_main
from crossrisk.geometry import load_area_map, load_tile_grid
from crossrisk.pipeline import RiskPipeline, write_trace_csv
from crossrisk.predictors import TrainedModelBundle
from crossrisk.risk import RiskLevel, RiskThresholdConfig, ThresholdMode, classify_offline
from crossrisk.stream import STREAM_HEADER_PIXEL, Observation, read_stream_csv
from crossrisk.synthgen import ScenarioSpec


@dataclass
class Setup:
    area_map: object
    thresholds: RiskThresholdConfig
    bundle: TrainedModelBundle
    streams: list[dict]     # frame -> observations (pixel: untransformed rows), one per sub-scenario
    last_frames: list[int]  # each recording's last frame: its spec's duration_s * fps
    tile_grid: object = None

    def pipeline(self) -> RiskPipeline:
        return RiskPipeline(self.area_map, self.thresholds, self.bundle)


@dataclass
class Rep:
    """What one repetition measured and produced."""

    wall_s: float = 0.0
    begin: float = 0.0
    end: float = 0.0
    frame_start: array = field(default_factory=lambda: array("d"))
    frame_ms: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    sub_digests: list = field(default_factory=list)
    sub_frame_s: list = field(default_factory=list)  # frame time summed per scenario (streams)
    problems: list = field(default_factory=list)
    command_s: dict = field(default_factory=dict)
    risk_scenarios: int = 0
    evaluations: int = 0
    live_buffers: int = 0
    live_pedestrians: int = 0
    samples: int = 0
    grid_points: int = 0

    def outputs(self, pipeline: RiskPipeline, thresholds: RiskThresholdConfig) -> str:
        """Keep the sizes, run the flag check and return the output digest;
        the pipeline itself is not kept."""
        result = pipeline.result
        self.risk_scenarios += len(result.risk_scenarios)
        self.evaluations += sum(len(v) for v in result.vectors_by_ped.values())
        self.live_buffers = max(self.live_buffers, len(pipeline.engine.buffers))
        self.live_pedestrians = max(self.live_pedestrians, len(pipeline.engine.pedestrians))
        self.problems += flag_mismatches(pipeline, thresholds)
        return result_digest(pipeline)


def read_pixel_rows(path: Path) -> dict[int, list[tuple]]:
    """Pixel stream rows per frame, untransformed, read as `crossrisk replay` reads them."""
    with open(path, encoding="utf-8", newline="") as fh:
        if next(csv.reader(fh), None) != STREAM_HEADER_PIXEL:
            raise ValueError(f"{path}: not a pixel stream")
    return _read_pixel_rows(str(path))


def setup(workload: Workload, inputs: Path) -> Setup:
    """Load the area map, thresholds, bundle, tile grid and streams, and build a pipeline."""
    subs = [inputs / f"sub{i}" for i in range(workload.subs)]
    specs = [ScenarioSpec.load(str(CONFIG_DIR / spec)) for spec in workload.specs]
    last_frames = [round(spec.duration_s * spec.fps) for spec in specs]
    area_map = load_area_map(str(subs[0] / "area_map.json"))
    thresholds = RiskThresholdConfig.default()
    if workload.gru:
        bundle = TrainedModelBundle.load(str(inputs / "bundle.json"))
    else:
        bundle = TrainedModelBundle.historical_average()
    if workload.pixel:
        s = Setup(area_map, thresholds, bundle, [read_pixel_rows(sub / "stream_pixel.csv") for sub in subs],
                  last_frames, load_tile_grid(str(inputs / "tile_grid.json")))
    else:
        s = Setup(area_map, thresholds, bundle, [read_stream_csv(str(sub / "stream.csv")) for sub in subs],
                  last_frames)
    s.pipeline()
    return s


def frame_loop(s: Setup, i: int, rep: Rep) -> tuple[RiskPipeline, int]:
    """Feed every frame of recording i back to back to a fresh pipeline,
    timing each one from handing over its rows (pixel rows include the
    transform) to `process_frame` returning. Returns the pipeline and the
    number of failed frames.

    A camera delivers every frame of the recording, so the loop runs from
    frame 0 to the spec's last frame, not only from the first to the last
    detection as `RiskPipeline.run` does; the frames before and after are
    empty and the outputs are the same. Every seed then has the same number
    of frames, where the span between detections varies by about a third.
    """
    pipeline = s.pipeline()
    frames, last = s.streams[i], s.last_frames[i]
    if max(frames) > last:
        raise ValueError(f"recording {i} has frames after its spec's duration")
    clock = time.perf_counter
    starts, times = rep.frame_start, rep.frame_ms
    grid = s.tile_grid
    transform = geometry.transform_point
    failed = 0
    for frame in range(last + 1):
        rows = frames.get(frame, ())
        start = clock()
        try:
            if grid is not None:
                rows = [Observation(frame, t, agent_id, cat, transform(grid, p)) for t, agent_id, cat, p in rows]
            pipeline.process_frame(frame, rows)
        except Exception as exc:  # noqa: BLE001 - a failed frame is counted, the loop goes on
            failed += 1
            rep.problems.append(f"frame {frame}: {type(exc).__name__}: {exc}")
        end = clock()
        starts.append(start)
        times.append((end - start) * 1000.0)
    return pipeline, failed


def stream_rep(s: Setup, count: int | None = None) -> Rep:
    """Every scenario (or the first count) once, each through a fresh pipeline."""
    rep = Rep(begin=time.perf_counter())
    for i in range(len(s.streams) if count is None else count):
        first = len(rep.frame_ms)
        pipeline, failed = frame_loop(s, i, rep)
        rep.sub_frame_s.append(sum(rep.frame_ms[first:]) / 1000.0)
        rep.failed += failed
        rep.sub_digests.append(rep.outputs(pipeline, s.thresholds))
        del pipeline
    rep.end = time.perf_counter()
    rep.wall_s = rep.end - rep.begin
    rep.attempted = len(rep.frame_ms)
    rep.digest = hashlib.sha256("|".join(rep.sub_digests).encode()).hexdigest()
    return rep


def offline_rep(s: Setup, workload: Workload, seed: int, inputs: Path, work: Path, part: int) -> Rep:
    """gen, build-dataset, train, the frame loop, tune; every command in process.

    The frame loop (timed together as `evaluate`) runs on streams loaded at
    set-up: the first, which must equal the one this repetition's gen writes
    and whose trace tune reads, and OFFLINE_FRAME_SUBS world scenarios that
    differ from part to part; these are the frames of the default deployment
    (world coordinates, baseline bundle). Frame percentiles pool every
    scenario of every part, so that few scenarios' pedestrian overlaps do
    not decide them; the outputs compared across repetitions are those of
    the first scenario and the chain.
    """
    rep = Rep(begin=time.perf_counter())
    samples, bundle, trace, calib = (work / n for n in ("samples.jsonl", "bundle.json", "trace.csv", "calibration.json"))
    commands = {
        "gen": ["gen", "--spec", str(CONFIG_DIR / workload.specs[0]), "--seed", str(seed), "--out", str(work)],
        "build-dataset": ["build-dataset", "--stream", str(work / "stream.csv"), "--area-map",
                          str(work / "area_map.json"), "--truth", str(work / "ground_truth.json"),
                          "--out", str(samples)],
        "train": ["train", "--dataset", str(samples), "--config", str(CONFIG_DIR / "train.json"),
                  "--out", str(bundle)],
        "tune": ["tune", "--trace", str(trace), "--truth", str(work / "ground_truth.json"),
                 "--grid", str(CONFIG_DIR / "grid.json"), "--k", str(TUNE_FOLDS), "--out", str(calib)],
    }

    def command(name: str) -> None:
        t0 = time.perf_counter()
        rc = crossrisk_main(commands[name])
        rep.command_s[name] = time.perf_counter() - t0
        rep.attempted += 1
        if rc != 0:
            rep.failed += 1
            rep.problems.append(f"{name} exited with {rc}")

    pipelines: dict[int, RiskPipeline] = {}
    rep.command_s["evaluate"] = 0.0

    def play(i: int) -> None:
        t0 = time.perf_counter()
        pipeline, failed_frames = frame_loop(s, i, rep)
        if i == 0:
            write_trace_csv(str(trace), pipeline.result.trace)
        rep.command_s["evaluate"] += time.perf_counter() - t0
        pipelines[i] = pipeline
        rep.failed += failed_frames > 0
        rep.attempted += 1

    # The world scenarios are played between the chain's commands, so that the
    # frame times are spread over the whole repetition, not one stretch of it
    # on which a slow spell of the machine may fall.
    others = [1 + (OFFLINE_FRAME_SUBS * part + k) % (len(s.streams) - 1) for k in range(OFFLINE_FRAME_SUBS)]
    half = len(others) // 2
    command("gen")
    for i in others[:half]:
        play(i)
    command("build-dataset")
    for i in others[half:]:
        play(i)
    command("train")
    play(0)
    digests = {i: rep.outputs(pipeline, s.thresholds) for i, pipeline in pipelines.items()}
    del pipelines
    command("tune")
    rep.end = time.perf_counter()
    rep.wall_s = rep.end - rep.begin

    outputs = digests[0]
    generated = [work / name for name in GEN_FILES]
    if all(p.is_file() for p in generated) and file_digest(*generated) != file_digest(
        *(inputs / "sub0" / name for name in GEN_FILES)
    ):
        rep.problems.append("gen wrote other files than the inputs generated for this seed")
    if not rep.problems:
        with open(samples, encoding="utf-8") as fh:
            rep.samples = sum(1 for _ in fh)
        if rep.samples == 0:
            rep.problems.append("build-dataset wrote no samples")
        with open(calib, encoding="utf-8") as fh:
            report = json.load(fh)
        try:
            RiskThresholdConfig.from_dict(report["best_config"])
        except (KeyError, TypeError, ValueError) as exc:
            rep.problems.append(f"tune best_config is not a threshold config: {exc}")
        rep.grid_points = grid_points(report)
        rep.digest = hashlib.sha256(
            f"{rep.samples}|{file_digest(bundle)}|{file_digest(calib)}|{outputs}".encode()
        ).hexdigest()
    for path in [samples, bundle, trace, calib] + generated:
        path.unlink(missing_ok=True)
    return rep


def grid_points(report: dict) -> int:
    from crossrisk.calibration import GridSpec
    from crossrisk.risk import AreaRole

    grid = GridSpec.from_dict(report["grid_spec"])
    per_category = sum(
        sum(1 for _ in grid.configs_for_role(AreaRole(role))) for role in report["grid_spec"]["axes"]
    )
    return per_category * len(report["best_config"]["categories"])


# --- output checks ------------------------------------------------------------------


def result_digest(pipeline: RiskPipeline) -> str:
    """SHA-256 over the P-PET trace rows and the emitted risk scenarios."""
    h = hashlib.sha256()
    for r in pipeline.result.trace:
        h.update(f"{r.frame},{r.ped_id},{r.veh_id},{r.area.value},{r.pf!r},{r.vf!r}\n".encode())
    for scenario in pipeline.result.risk_scenarios:
        h.update(json.dumps(scenario.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def flag_mismatches(pipeline: RiskPipeline, thresholds: RiskThresholdConfig) -> list[str]:
    """Compare streaming Risk-2 flags with `classify_offline` on each
    pedestrian's emitted trace.

    Pedestrians are compared for every category; flagged areas only for
    per-area categories. A merged-area category emits one streaming
    scenario per pedestrian while the batch classifier marks both areas.
    """
    result = pipeline.result
    stream_peds = {s.ped_id for s in result.risk_scenarios}
    stream_areas = {(s.ped_id, s.area) for s in result.risk_scenarios}
    batch_peds, batch_areas, per_area = set(), set(), set()
    for ped_id, vectors in result.vectors_by_ped.items():
        category = pipeline.engine.pedestrians[ped_id].category
        outcome = classify_offline(vectors, category, thresholds)
        flagged = {role for role, level in outcome.items() if level is RiskLevel.RISK2}
        if flagged:
            batch_peds.add(ped_id)
        if thresholds.for_category(category).mode is ThresholdMode.PER_AREA:
            per_area.add(ped_id)
            batch_areas |= {(ped_id, role) for role in flagged}
    problems = []
    if stream_peds != batch_peds:
        problems.append(f"flagged pedestrians differ: stream-only {sorted(stream_peds - batch_peds)}, "
                        f"batch-only {sorted(batch_peds - stream_peds)}")
    stream_areas = {(p, a) for p, a in stream_areas if p in per_area}
    if stream_areas != batch_areas:
        problems.append(f"per-area flags differ: stream {len(stream_areas)}, batch {len(batch_areas)}")
    return problems
