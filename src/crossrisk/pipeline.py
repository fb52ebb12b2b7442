"""End-to-end streaming risk evaluation: ingestion, arrival-time prediction,
predicted post-encroachment times, and the per-pedestrian risk state machine.

The CLI evaluate/replay commands are thin wrappers over this module, so a
file-driven run is exactly the composition of library calls.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ManifestError, PredictionError
from .geometry import (
    AreaMap,
    WorldPoint,
    pedestrian_line_name,
    signed_distance_to_line,
    vehicle_line_name,
)
from .ppet import ArrivalEstimateSet, ConflictScenario, PPetVector, ppet
from .predictors import RecurrentRegressor, TrainedModelBundle
from .predictors.recurrent import predict_stacked, stacked_features
from .risk import (
    AreaRole,
    Decision,
    DecisionKind,
    FrameContext,
    RiskScenario,
    RiskThresholdConfig,
    in_evaluation_zone,
    select_conflict_vehicle,
    step_evaluate,
)
from .stream import (
    AgentCategory,
    Direction,
    Observation,
    PedestrianStatus,
    SlidingWindowTrajectory,
    StreamEngine,
    closer_further_assignment,
)

# Vehicle class that serves each conflict area (approach-zone association).
CONFLICT_AREA_VEHICLE = {c.conflict_area: c for c in AgentCategory if c.conflict_area is not None}

_ROLES = (AreaRole.CLOSER, AreaRole.FURTHER)
_PF = ConflictScenario.PEDESTRIAN_FIRST
_VF = ConflictScenario.VEHICLE_FIRST


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


def _answer_recurrent(
    queued: Sequence[tuple[list, int, RecurrentRegressor, SlidingWindowTrajectory]],
) -> None:
    """Write each queued request's arrival seconds into its (estimates, index)
    slot: one predict_stacked pass per hidden size, with the features of each
    window computed once however many models read it."""
    windows = list({id(w): w for *_, w in queued}.values())
    row = {id(w): i for i, w in enumerate(windows)}
    features = stacked_features(
        np.stack([w.times for w in windows]), np.stack([w.positions for w in windows])
    )
    by_size: dict[int, list] = {}
    for request in queued:
        by_size.setdefault(request[2].hidden_size, []).append(request)
    for group in by_size.values():
        seconds = predict_stacked(
            [model for _, _, model, _ in group], features[[row[id(w)] for *_, w in group]]
        )
        for (estimates, index, _, _), value in zip(group, seconds.tolist()):
            estimates[index] = value


@dataclass(frozen=True)
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
    vectors_by_ped: dict[str, list[PPetVector]] = field(default_factory=dict)
    prediction_ms: list[float] = field(default_factory=list)
    ppet_risk_ms: list[float] = field(default_factory=list)


class RiskPipeline:
    """Frame-serialized evaluator combining all library stages."""

    def __init__(
        self,
        area_map: AreaMap,
        thresholds: RiskThresholdConfig,
        bundle: TrainedModelBundle | None = None,
        fps: float = 30.0,
    ):
        self.area_map = area_map
        self.thresholds = thresholds
        self.bundle = bundle if bundle is not None else TrainedModelBundle.historical_average()
        self.fps = fps
        self.engine = StreamEngine(area_map)
        self.result = EvaluationResult()

    # -- prediction helpers -------------------------------------------------------

    def _request(self, q: int, window: SlidingWindowTrajectory, line, estimates: list, queued: list) -> None:
        """Append the arrival seconds at `line` to `estimates`: None when the
        line is behind the agent or the predictor cannot produce an estimate.

        Any predictor but the recurrent one answers here. A recurrent request
        leaves a None slot and goes to `queued`, for `_answer_recurrent`.
        """
        if signed_distance_to_line(window.end_position, line) < 0.0:
            estimates.append(None)
            return
        predictor = self.bundle.predictor_for(window.category, q)
        if isinstance(predictor, RecurrentRegressor):
            queued.append((estimates, len(estimates), predictor, window))
            estimates.append(None)
            return
        try:
            estimates.append(predictor.predict(window, line).seconds)
        except PredictionError:
            estimates.append(None)

    def _vehicle_estimates(self, veh_id: str, area_id: str, cache: dict, queued: list) -> list:
        key = (veh_id, area_id)
        if key in cache:
            return cache[key]
        estimates: list[float | None] = []
        if not self.engine.window_ready(veh_id):
            estimates += [None, None]
        else:
            window = self.engine.window(veh_id)
            for q, enter in ((0, True), (1, False)):
                line = self.area_map.line(vehicle_line_name(area_id, enter))
                self._request(q, window, line, estimates, queued)
        cache[key] = estimates
        return estimates

    def _frame_estimates(
        self, targets: Sequence[tuple[SlidingWindowTrajectory, Direction, Mapping[AreaRole, tuple]]]
    ) -> list[ArrivalEstimateSet]:
        """Arrival estimates of one frame's target pedestrians, each given as
        its window, its direction and its conflict vehicles: (id, position)
        per area role that has one.

        Every request is made first; the recurrent ones are then answered
        together, so a frame's GRU predictions cost one stacked pass per
        hidden size. A vehicle serving several pedestrians is predicted once.
        """
        queued: list = []
        vehicle_cache: dict = {}
        requested = []
        for window, direction, vehicles in targets:
            ped: list[float | None] = []
            for q in (0, 1, 2):
                line = self.area_map.line(pedestrian_line_name(direction.value, q))
                self._request(q, window, line, ped, queued)
            veh = [
                self._vehicle_estimates(vehicles[role][0], area_id, vehicle_cache, queued)
                if role in vehicles else (None, None)
                for role, area_id in zip(_ROLES, closer_further_assignment(direction))
            ]
            requested.append((ped, veh))
        if queued:
            _answer_recurrent(queued)
        return [ArrivalEstimateSet(*_ordered(ped), *closer, *further) for ped, (closer, further) in requested]

    def _conflict_vehicle(
        self, ped_position: WorldPoint, area_id: str,
        snapshot: Mapping[AgentCategory, dict[str, WorldPoint]],
    ) -> tuple[str, WorldPoint] | None:
        candidates = snapshot[CONFLICT_AREA_VEHICLE[area_id]]
        veh_id = select_conflict_vehicle(ped_position, candidates.items())
        return None if veh_id is None else (veh_id, candidates[veh_id])

    # -- frame loop ----------------------------------------------------------------

    def process_frame(self, frame: int, observations: Sequence[Observation]) -> list[Decision]:
        """Ingest one frame and evaluate every ready target pedestrian."""
        self.engine.ingest_frame(frame, observations)
        t = frame / self.fps
        decisions_out: list[Decision] = []

        t0 = time.perf_counter()
        # one vehicle snapshot per frame, shared across pedestrians
        snapshot = {
            category: dict(self.engine.agents_in_areas([category], ("3.", "4.")))
            for category in CONFLICT_AREA_VEHICLE.values()
        }
        evaluated = []
        for ped_id, state in self.engine.pedestrians.items():
            if state.status is not PedestrianStatus.TARGET:
                continue
            if not in_evaluation_zone(state.current_area):
                continue
            if not self.engine.window_ready(ped_id) or state.direction is Direction.UNKNOWN:
                continue
            window = self.engine.window(ped_id)
            vehicles: dict[AreaRole, tuple[str, WorldPoint]] = {}
            for role, area_id in zip(_ROLES, closer_further_assignment(state.direction)):
                found = self._conflict_vehicle(window.end_position, area_id, snapshot)
                if found is not None:
                    vehicles[role] = found
            evaluated.append((state, window, vehicles))
        estimates = self._frame_estimates(
            [(window, state.direction, vehicles) for state, window, vehicles in evaluated]
        )
        prediction_ms = (time.perf_counter() - t0) * 1000.0

        t1 = time.perf_counter()
        for (state, window, vehicles), est in zip(evaluated, estimates):
            ped_position = window.end_position
            vector = ppet(est)
            context = FrameContext(frame, t, ped_position, vehicles)
            decisions = step_evaluate(state, vector, self.thresholds, context)
            decisions_out.extend(decisions)
            for decision in decisions:
                if decision.kind is DecisionKind.RISK2_FLAGGED and decision.scenario is not None:
                    self.result.risk_scenarios.append(decision.scenario)
            self.result.vectors_by_ped.setdefault(state.agent_id, []).append(vector)
            for role in (AreaRole.CLOSER, AreaRole.FURTHER):
                veh_id = vehicles.get(role, ("", None))[0]
                self.result.trace.append(
                    TraceRow(
                        frame=frame,
                        ped_id=state.agent_id,
                        veh_id=veh_id,
                        area=role,
                        pf=vector.component(role.value, _PF),
                        vf=vector.component(role.value, _VF),
                    )
                )
        ppet_risk_ms = (time.perf_counter() - t1) * 1000.0

        self.result.prediction_ms.append(prediction_ms)
        self.result.ppet_risk_ms.append(ppet_risk_ms)
        return decisions_out

    def run(self, frames: Mapping[int, Sequence[Observation]]) -> EvaluationResult:
        """Process a whole stream (contiguous frame range, empty frames included)."""
        if frames:
            first, last = min(frames), max(frames)
            for frame in range(first, last + 1):
                self.process_frame(frame, frames.get(frame, []))
        return self.result


# --- output files ---------------------------------------------------------------

TRACE_HEADER = ["frame", "ped_id", "veh_id", "area", "c_pf", "c_vf", "f_pf", "f_vf"]


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_trace_csv(path: str, trace: Sequence[TraceRow]) -> None:
    """P-PET trace: one row per evaluated (frame, pedestrian, area); the
    columns of the other area stay empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for row in trace:
            if row.area is AreaRole.CLOSER:
                cells = [_cell(row.pf), _cell(row.vf), "", ""]
            else:
                cells = ["", "", _cell(row.pf), _cell(row.vf)]
            writer.writerow([row.frame, row.ped_id, row.veh_id, row.area.value] + cells)


_TRACE_COMPONENTS = TRACE_HEADER[4:]
# The component columns each trace area fills; the other area's stay empty.
_TRACE_AREA_COLUMNS = {AreaRole.CLOSER.value: _TRACE_COMPONENTS[:2], AreaRole.FURTHER.value: _TRACE_COMPONENTS[2:]}


def _trace_component(cell: str) -> float | None:
    if not cell:
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"component must be finite, got {cell}")
    return value


def read_trace_csv(path: str) -> dict[str, list[PPetVector]]:
    """Rebuild per-pedestrian P-PET vector sequences from a trace file.

    A missing column, a row whose cell count differs from the header's, a
    non-integer frame, an area other than closer/further, a component that is
    neither empty nor a finite float, or a value in the other area's columns
    raises ManifestError naming path:line.
    """
    per_key: dict[tuple[str, int], dict[str, float | None]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRACE_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ManifestError(f"{path}:1: trace header lacks columns {missing}")
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} cells")
                key = (row["ped_id"], int(row["frame"]))
                own = _TRACE_AREA_COLUMNS.get(row["area"])
                if own is None:
                    raise ValueError(f"area must be closer or further, got {row['area']!r}")
                if any(row[c] for c in _TRACE_COMPONENTS if c not in own):
                    raise ValueError("a value in the other area's columns")
                values = {c: _trace_component(row[c]) for c in own}
            except ValueError as exc:
                raise ManifestError(f"{path}:{reader.line_num}: bad trace row: {exc}") from exc
            per_key.setdefault(key, dict.fromkeys(_TRACE_COMPONENTS)).update(values)
    vectors: dict[str, list[PPetVector]] = {}
    for (ped_id, _), parts in per_key.items():
        vectors.setdefault(ped_id, []).append(PPetVector(**parts))
    return vectors


def write_risk_scenarios(path: str, scenarios: Sequence[RiskScenario]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for scenario in scenarios:
            fh.write(json.dumps(scenario.to_dict(), sort_keys=True))
            fh.write("\n")


@dataclass(frozen=True)
class LatencyReport:
    """Per-frame latency of the safety-evaluation path, in milliseconds.

    The safety-evaluation figures are prediction plus P-PET/risk time per
    frame: their mean, which the real-time budget gates, and their tail.
    """

    transform_mean_ms: float
    transform_std_ms: float
    prediction_mean_ms: float
    prediction_std_ms: float
    ppet_risk_mean_ms: float
    ppet_risk_std_ms: float
    safety_eval_mean_ms: float
    safety_eval_p50_ms: float
    safety_eval_p99_ms: float
    safety_eval_max_ms: float
    frames: int
    unit: str = "frame"

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "frames": self.frames,
            "transform_ms": {"mean": self.transform_mean_ms, "std": self.transform_std_ms},
            "prediction_ms": {"mean": self.prediction_mean_ms, "std": self.prediction_std_ms},
            "ppet_risk_ms": {"mean": self.ppet_risk_mean_ms, "std": self.ppet_risk_std_ms},
            "safety_evaluation_mean_ms": self.safety_eval_mean_ms,
            "safety_evaluation_p50_ms": self.safety_eval_p50_ms,
            "safety_evaluation_p99_ms": self.safety_eval_p99_ms,
            "safety_evaluation_max_ms": self.safety_eval_max_ms,
        }


def latency_report(
    prediction_ms: Sequence[float],
    ppet_risk_ms: Sequence[float],
    transform_ms: Sequence[float] = (),
) -> LatencyReport:
    def stats(values: Sequence[float]) -> tuple[float, float]:
        if not values:
            return 0.0, 0.0
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std())

    t_mean, t_std = stats(transform_ms)
    p_mean, p_std = stats(prediction_ms)
    r_mean, r_std = stats(ppet_risk_ms)
    safety = np.add(prediction_ms, ppet_risk_ms)
    p50, p99, worst = np.percentile(safety, [50, 99, 100]).tolist() if safety.size else (0.0, 0.0, 0.0)
    return LatencyReport(
        transform_mean_ms=t_mean,
        transform_std_ms=t_std,
        prediction_mean_ms=p_mean,
        prediction_std_ms=p_std,
        ppet_risk_mean_ms=r_mean,
        ppet_risk_std_ms=r_std,
        safety_eval_mean_ms=p_mean + r_mean,
        safety_eval_p50_ms=p50,
        safety_eval_p99_ms=p99,
        safety_eval_max_ms=worst,
        frames=len(prediction_ms),
    )
