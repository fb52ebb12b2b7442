"""End-to-end streaming risk evaluation: ingestion, arrival-time prediction,
predicted post-encroachment times, and the per-pedestrian risk state machine.

The CLI evaluate command is a thin wrapper over this module, so a
file-driven run is exactly the composition of library calls.
"""

from __future__ import annotations

import csv
import json
import math
import time
from array import array
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ManifestError, OutOfOrderFrame, PredictionError
from .files import input_lines, open_output
from .geometry import AreaMap, TargetLine, WorldPoint, signed_distance_to_line
from .ppet import AREA_LINES, PPetVector, ppet
from .predictors import InferenceView, TrainedModelBundle
from .risk import (
    AREAS,
    AreaRole,
    DecisionKind,
    RiskScenario,
    RiskThresholdConfig,
    in_evaluation_zone,
    select_conflict_vehicle,
    step_evaluate,
)
from .stream import (
    FPS,
    AgentCategory,
    Direction,
    Observation,
    PedestrianStatus,
    SlidingWindowTrajectory,
    StreamEngine,
    closer_further_assignment,
    target_line_table,
)

# Vehicle class that serves each conflict area (approach-zone association).
CONFLICT_AREA_VEHICLE = {c.conflict_area: c for c in AgentCategory if c.conflict_area is not None}

# PPetVector's field names as a vector: its area(i) names area i's trace columns.
_COLUMNS = PPetVector._make(PPetVector._fields)


def _ordered(estimates: list[float | None]) -> list[float | None]:
    """Pedestrian line estimates raised where needed so that a later line is
    never reached before an earlier one (None entries are skipped)."""
    running = None
    for i, value in enumerate(estimates):
        if value is None:
            continue
        if running is not None and value < running:
            estimates[i] = running
        running = estimates[i]
    return estimates


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One evaluated (frame, pedestrian, area) with that area's components."""

    frame: int
    ped_id: str
    veh_id: str
    area: AreaRole
    pf: float | None
    vf: float | None


@dataclass
class EvaluationResult:
    risk_scenarios: list[RiskScenario] = field(default_factory=list)
    trace: list[TraceRow] = field(default_factory=list)
    # per-frame stage times, one unboxed double per frame
    ingest_ms: array = field(default_factory=lambda: array("d"))
    prediction_ms: array = field(default_factory=lambda: array("d"))
    ppet_risk_ms: array = field(default_factory=lambda: array("d"))

    @property
    def vectors_by_ped(self) -> dict[str, list[PPetVector]]:
        """Each evaluated pedestrian's P-PET vectors in frame order, grouped
        from the trace as read_trace_csv groups a trace file."""
        return _vectors_by_ped((r.ped_id, r.frame, AREAS.index(r.area), r.pf, r.vf) for r in self.trace)


class RiskPipeline:
    """Frame-serialized evaluator combining all library stages.

    The bundle must hold a finite predictor for every pair of ALL_PAIRS, and
    the area map every target line an agent can need: the constructor builds
    the bundle's InferenceView and asks the map for each line once, so
    MissingPredictor, TypeError, NonFiniteParameters or KeyError is raised
    here and not on the first frame that happens to need it.
    """

    def __init__(
        self,
        area_map: AreaMap,
        thresholds: RiskThresholdConfig,
        bundle: TrainedModelBundle | None = None,
    ):
        self.area_map = area_map
        self.thresholds = thresholds
        self.bundle = bundle if bundle is not None else TrainedModelBundle.historical_average()
        self.view = InferenceView(self.bundle)
        self._lines = target_line_table(area_map)
        self.engine = StreamEngine(area_map)
        self.result = EvaluationResult()

    # -- prediction -----------------------------------------------------------------

    def _frame_estimates(
        self, targets: Sequence[tuple[SlidingWindowTrajectory, Direction, Mapping[AreaRole, tuple]]]
    ) -> list[tuple[list[float | None], list[tuple[float | None, float | None]]]]:
        """Arrival estimates of one frame's target pedestrians, each given as
        its window, its direction and its conflict vehicles: (id, position)
        per area role that has one. Each target's estimates are ppet's
        arguments.

        The frame's requests form one table keyed by (agent id, q), so a
        vehicle serving several pedestrians is asked, and its window built,
        once; a line behind the agent is not asked and gives None. Only what
        a P-PET component reads is asked: a conflict vehicle only while a
        pedestrian line that bounds its area (AREA_LINES) is ahead, and a
        pedestrian's lines up to the leave line of the furthest area whose
        vehicle has a request, none without one (_ordered lifts each line
        to the earlier ones); the others give None.
        The bundle's view answers the whole table in one call, and a request
        that fails gives None.
        """
        index: dict[tuple[str, int], int] = {}  # (agent id, q) -> its request
        requests: list[tuple[int, SlidingWindowTrajectory, TargetLine]] = []
        asked: set[str] = set()

        def ask(window: SlidingWindowTrajectory, lines: Sequence[TargetLine]) -> None:
            asked.add(window.agent_id)
            for q, line in enumerate(lines):
                if signed_distance_to_line(window.end_position, line) >= 0.0:
                    index[window.agent_id, q] = len(requests)
                    requests.append((q, window, line))

        rows = []
        for window, direction, vehicles in targets:
            ped_lines = self._lines[window.category, direction]
            ahead = [signed_distance_to_line(window.end_position, line) >= 0.0 for line in ped_lines]
            veh_ids, ped_read = [], 0
            for role, (enter, leave) in zip(AREAS, AREA_LINES):
                veh_id = vehicles[role][0] if role in vehicles and (ahead[enter] or ahead[leave]) else None
                if veh_id is not None and veh_id not in asked and self.engine.window_ready(veh_id):
                    veh_window = self.engine.window(veh_id)
                    ask(veh_window, self._lines[veh_window.category, direction])
                if (veh_id, 0) in index or (veh_id, 1) in index:
                    ped_read = leave + 1
                veh_ids.append(veh_id)
            ask(window, ped_lines[:ped_read])
            rows.append((window.agent_id, veh_ids))
        answers = self.view.arrival_times(requests)

        def seconds(agent_id: str | None, q: int) -> float | None:
            i = index.get((agent_id, q))
            value = None if i is None else answers[i]
            return None if isinstance(value, PredictionError) else value

        return [
            (
                _ordered([seconds(ped_id, q) for q in range(3)]),
                [(seconds(veh_id, 0), seconds(veh_id, 1)) for veh_id in veh_ids],
            )
            for ped_id, veh_ids in rows
        ]

    # -- frame loop ----------------------------------------------------------------

    def process_frame(self, frame: int, observations: Sequence[Observation]) -> None:
        """Ingest one frame and evaluate every ready target pedestrian."""
        t = frame / FPS

        t_ingest = time.perf_counter()
        self.engine.ingest_frame(frame, observations)
        t0 = time.perf_counter()
        # one vehicle snapshot per frame, shared across pedestrians, built
        # for the first pedestrian the frame evaluates
        snapshot = None
        evaluated = []
        for ped_id, state in self.engine.pedestrians.items():
            if state.status is not PedestrianStatus.TARGET:
                continue
            if not in_evaluation_zone(state.current_area):
                continue
            if not self.engine.window_ready(ped_id) or state.direction is Direction.UNKNOWN:
                continue
            if snapshot is None:
                snapshot = {
                    area_id: dict(self.engine.agents_in_areas([category], ("3.", "4.")))
                    for area_id, category in CONFLICT_AREA_VEHICLE.items()
                }
            window = self.engine.window(ped_id)
            vehicles: dict[AreaRole, tuple[str, WorldPoint]] = {}
            for role, area_id in zip(AREAS, closer_further_assignment(state.direction)):
                candidates = snapshot[area_id]
                veh_id = select_conflict_vehicle(window.end_position, candidates.items())
                if veh_id is not None:
                    vehicles[role] = (veh_id, candidates[veh_id])
            evaluated.append((state, window, vehicles))
        estimates = self._frame_estimates(
            [(window, state.direction, vehicles) for state, window, vehicles in evaluated]
        )
        prediction_ms = (time.perf_counter() - t0) * 1000.0

        t1 = time.perf_counter()
        for (state, window, vehicles), (ped_times, vehicle_times) in zip(evaluated, estimates):
            vector = ppet(ped_times, vehicle_times)
            decisions = step_evaluate(state, vector, self.thresholds, t, window.end_position, vehicles)
            for decision in decisions:
                if decision.kind is DecisionKind.RISK2_FLAGGED and decision.scenario is not None:
                    self.result.risk_scenarios.append(decision.scenario)
            for i, role in enumerate(AREAS):
                veh_id = vehicles.get(role, ("", None))[0]
                self.result.trace.append(TraceRow(frame, state.agent_id, veh_id, role, *vector.area(i)))
        ppet_risk_ms = (time.perf_counter() - t1) * 1000.0

        self.result.ingest_ms.append((t0 - t_ingest) * 1000.0)
        self.result.prediction_ms.append(prediction_ms)
        self.result.ppet_risk_ms.append(ppet_risk_ms)

    def run(self, frames: Iterable[tuple[int, Sequence[Observation]]], realtime: bool = False) -> EvaluationResult:
        """Process (frame, observations) pairs in increasing frame order, the
        frames between two pairs as empty frames; going back raises OutOfOrderFrame.

        With realtime, frames arrive as from a camera at FPS: the n-th frame
        after the first is not handed over before n / FPS seconds.
        """
        last = None
        for frame, observations in frames:
            if last is None:
                start, first, last = time.perf_counter(), frame, frame - 1
            elif frame <= last:
                raise OutOfOrderFrame(f"frame {frame} after frame {last}")
            for f in range(last + 1, frame + 1):
                if realtime:
                    delay = start + (f - first) / FPS - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                self.process_frame(f, observations if f == frame else [])
            last = frame
        return self.result


# --- output files ---------------------------------------------------------------

TRACE_HEADER = ["frame", "ped_id", "veh_id", "area", *PPetVector._fields]


# the positions of each area's (pf, vf) cells among the four components
_CELLS = {area: PPetVector(*range(4)).area(i) for i, area in enumerate(AREAS)}


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_trace_csv(path: str, trace: Sequence[TraceRow]) -> None:
    """P-PET trace: one row per evaluated (frame, pedestrian, area); the
    columns of the other area stay empty."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for row in trace:
            cells = ["", "", "", ""]
            pf, vf = _CELLS[row.area]
            cells[pf], cells[vf] = _cell(row.pf), _cell(row.vf)
            writer.writerow([row.frame, row.ped_id, row.veh_id, row.area.value, *cells])


def _trace_component(cell: str) -> float | None:
    if not cell:
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"component must be finite, got {cell}")
    return value


def _vectors_by_ped(
    rows: Iterable[tuple[str, int, int, float | None, float | None]]
) -> dict[str, list[PPetVector]]:
    """Per-pedestrian P-PET vectors from trace rows, each given as its
    pedestrian, frame, area index and that area's (pf, vf): the rows of one
    (pedestrian, frame) make one vector, in order of first appearance.

    Each (pedestrian, frame) gets the next index and four cells of one flat
    list, so a row costs no container of its own."""
    index: dict[tuple[str, int], int] = {}
    owners: list[str] = []  # the pedestrian of each index
    cells: list[float | None] = []  # the four components of each index
    for ped_id, frame, area, pf, vf in rows:
        i = index.setdefault((ped_id, frame), len(owners))
        if i == len(owners):
            owners.append(ped_id)
            cells += (None, None, None, None)
        cells[4 * i + 2 * area] = pf
        cells[4 * i + 2 * area + 1] = vf
    del index  # the keys go before the vectors are built
    vectors: dict[str, list[PPetVector]] = {}
    for i, ped_id in enumerate(owners):
        vectors.setdefault(ped_id, []).append(PPetVector._make(cells[4 * i:4 * i + 4]))
    return vectors


def read_trace_csv(path: str) -> dict[str, list[PPetVector]]:
    """Rebuild per-pedestrian P-PET vector sequences from a trace file.

    A missing column, a row whose cell count differs from the header's, a
    non-integer frame, an area other than closer/further, a component that is
    neither empty nor a finite float, or a value in the other area's columns
    raises ManifestError naming path:line.
    """
    area_index = {area.value: i for i, area in enumerate(AREAS)}

    def rows(reader: csv.DictReader) -> Iterator[tuple[str, int, int, float | None, float | None]]:
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} cells")
                frame = int(row["frame"])
                area = area_index.get(row["area"])
                if area is None:
                    raise ValueError(f"area must be one of {list(area_index)}, got {row['area']!r}")
                pf, vf = _COLUMNS.area(area)
                if any(row[c] for c in _COLUMNS if c not in (pf, vf)):
                    raise ValueError("a value in the other area's columns")
                yield row["ped_id"], frame, area, _trace_component(row[pf]), _trace_component(row[vf])
            except ValueError as exc:
                raise ManifestError(f"{path}:{reader.line_num}: bad trace row: {exc}") from exc

    with closing(input_lines(path, "trace file")) as lines:
        reader = csv.DictReader(lines)
        missing = [c for c in TRACE_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ManifestError(f"{path}:1: trace header lacks columns {missing}")
        return _vectors_by_ped(rows(reader))


def write_risk_scenarios(path: str, scenarios: Sequence[RiskScenario]) -> None:
    with open_output(path) as fh:
        for scenario in scenarios:
            fh.write(json.dumps(scenario.to_dict(), sort_keys=True))
            fh.write("\n")


def latency_report(
    prediction_ms: Sequence[float],
    ppet_risk_ms: Sequence[float],
    transform_ms: Sequence[float] = (),
    ingest_ms: Sequence[float] = (),
) -> dict:
    """Per-frame latency of the safety-evaluation path, in milliseconds: the
    mean and standard deviation of each stage (the pixel transform and the
    ingest included), and of the safety evaluation (prediction plus
    P-PET/risk per frame) its mean, which the real-time budget gates, and its
    tail."""
    def stats(values: Sequence[float]) -> dict[str, float]:
        if not values:
            return {"mean": 0.0, "std": 0.0}
        arr = np.asarray(values)
        return {"mean": float(arr.mean()), "std": float(arr.std())}

    prediction, ppet_risk = stats(prediction_ms), stats(ppet_risk_ms)
    safety = np.add(prediction_ms, ppet_risk_ms)
    p50, p99, worst = np.percentile(safety, [50, 99, 100]).tolist() if safety.size else (0.0, 0.0, 0.0)
    return {
        "unit": "frame",
        "frames": len(prediction_ms),
        "transform_ms": stats(transform_ms),
        "ingest_ms": stats(ingest_ms),
        "prediction_ms": prediction,
        "ppet_risk_ms": ppet_risk,
        "safety_evaluation_mean_ms": prediction["mean"] + ppet_risk["mean"],
        "safety_evaluation_p50_ms": p50,
        "safety_evaluation_p99_ms": p99,
        "safety_evaluation_max_ms": worst,
    }
