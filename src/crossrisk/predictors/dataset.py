"""Labeled-dataset construction: sliding windows paired with the ground-truth
seconds-to-target measured on the complete trajectory."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np

from ..errors import ManifestError
from ..geometry import (
    AreaMap,
    TargetLine,
    WorldPoint,
    first_crossing_time,
    pedestrian_line_name,
    vehicle_line_name,
)
from ..stream import (
    WINDOW_SIZE,
    AgentCategory,
    Direction,
    Observation,
    SlidingWindowTrajectory,
    infer_direction,
)
from .base import AgentKind, TargetLocation

log = logging.getLogger(__name__)


class Awareness(IntEnum):
    DID_NOT_NOTICE = 0
    NOTICED = 1


class Reaction(IntEnum):
    NONE = 0
    DECELERATE = 1
    ACCELERATE = 2


@dataclass(frozen=True)
class AgentAnnotation:
    """Reviewer-provided context attached to every sample of one agent."""

    awareness: Awareness = Awareness.DID_NOT_NOTICE
    reaction: Reaction = Reaction.NONE
    risk_level: int = 1


@dataclass(frozen=True)
class LabeledSample:
    """A sliding window with the true seconds-to-target at its end point."""

    window: SlidingWindowTrajectory
    arrival_time: float
    category: AgentCategory
    q: TargetLocation
    awareness: Awareness = Awareness.DID_NOT_NOTICE
    reaction: Reaction = Reaction.NONE
    risk_level: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0.0:
            raise ValueError(f"arrival time must be finite and >= 0, got {self.arrival_time}")
        if self.risk_level not in (0, 1, 2):
            raise ValueError(f"risk level must be 0, 1 or 2, got {self.risk_level}")


def targets_for_agent(
    trajectory: Sequence[Observation], area_map: AreaMap
) -> list[TargetLocation]:
    """Standard target locations for one agent's complete trajectory.

    Pedestrian targets depend on the crossing direction inferred from the
    full trajectory; vehicle targets are the enter/leave lines of the
    conflict area their class serves.
    """
    category = trajectory[0].category
    if category.is_pedestrian:
        direction = infer_direction(trajectory)
        if direction is Direction.UNKNOWN:
            return []
        return [
            TargetLocation(AgentKind.PEDESTRIAN, q, area_map.line(pedestrian_line_name(direction.value, q)))
            for q in (0, 1, 2)
        ]
    area = category.conflict_area
    return [
        TargetLocation(AgentKind.VEHICLE, 0, area_map.line(vehicle_line_name(area, enter=True))),
        TargetLocation(AgentKind.VEHICLE, 1, area_map.line(vehicle_line_name(area, enter=False))),
    ]


def build_labeled_dataset(
    trajectories: Sequence[Sequence[Observation]],
    area_map: AreaMap,
    targets: Sequence[TargetLocation] | None = None,
    annotations: Mapping[str, AgentAnnotation] | None = None,
) -> list[LabeledSample]:
    """Emit every pre-crossing sliding window paired with its arrival time.

    For each trajectory and each target q the label of window j is the
    crossing time minus the window-end time; windows ending after the agent
    passed q are excluded. Trajectories that never reach a target are skipped
    for that target and logged. Each trajectory's time and position arrays
    are built once; its windows are slices of them.
    """
    annotations = annotations or {}
    samples: list[LabeledSample] = []
    for trajectory in trajectories:
        if len(trajectory) < WINDOW_SIZE:
            continue
        agent_id, category = trajectory[0].agent_id, trajectory[0].category
        note = annotations.get(agent_id, AgentAnnotation())
        agent_targets = list(targets) if targets is not None else targets_for_agent(trajectory, area_map)
        if not agent_targets:
            log.info("agent %s skipped: no resolvable targets", agent_id)
            continue
        frames = [o.frame for o in trajectory]
        times = np.array([o.t for o in trajectory])
        positions = np.array([(o.position.x, o.position.y) for o in trajectory])
        # the windows are overlapping views of these arrays
        times.flags.writeable = positions.flags.writeable = False
        for target in agent_targets:
            t_cross = first_crossing_time(positions, times, target.line)
            if t_cross is None:
                log.info("agent %s never crosses q=%d", agent_id, target.q)
                continue
            for j in range(len(trajectory) - WINDOW_SIZE + 1):
                end = j + WINDOW_SIZE
                if frames[end - 1] - frames[j] != WINDOW_SIZE - 1:
                    continue  # gap in the stored trajectory
                t_end = trajectory[end - 1].t
                if t_end > t_cross:
                    break
                samples.append(
                    LabeledSample(
                        window=SlidingWindowTrajectory(
                            agent_id, category, frames[j], times[j:end], positions[j:end]
                        ),
                        arrival_time=t_cross - t_end,
                        category=category,
                        q=target,
                        awareness=note.awareness,
                        reaction=note.reaction,
                        risk_level=note.risk_level,
                    )
                )
    return samples


# --- labeled-samples file (JSON lines) ---------------------------------------


def write_samples_jsonl(path: str, samples: Sequence[LabeledSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            w = s.window
            doc = {
                "agent_id": w.agent_id,
                "category": int(s.category),
                "kind": s.q.kind.value,
                "q": s.q.q,
                "arrival_time": s.arrival_time,
                "awareness": int(s.awareness),
                "reaction": int(s.reaction),
                "risk_level": s.risk_level,
                "first_frame": w.first_frame,
                "t": w.times.tolist(),
                "x": w.positions[:, 0].tolist(),
                "y": w.positions[:, 1].tolist(),
                "line": {
                    "p0": [s.q.line.p0.x, s.q.line.p0.y],
                    "p1": [s.q.line.p1.x, s.q.line.p1.y],
                    "normal": list(s.q.line.normal),
                },
            }
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")


def _parse_sample(doc: Mapping) -> LabeledSample:
    category = AgentCategory(int(doc["category"]))
    t, x, y = doc["t"], doc["x"], doc["y"]
    if not len(t) == len(x) == len(y):
        raise ValueError(f"t, x and y hold {len(t)}, {len(x)} and {len(y)} points")
    window = SlidingWindowTrajectory(
        doc["agent_id"],
        category,
        int(doc["first_frame"]),
        np.array(t, dtype=float),
        np.column_stack([np.array(x, dtype=float), np.array(y, dtype=float)]),
    )
    if not (np.isfinite(window.times).all() and np.isfinite(window.positions).all()):
        raise ValueError("t, x and y must be finite")
    if np.any(np.diff(window.times) <= 0):
        raise ValueError("t must strictly increase")
    line = TargetLine(
        WorldPoint(*map(float, doc["line"]["p0"])),
        WorldPoint(*map(float, doc["line"]["p1"])),
        (float(doc["line"]["normal"][0]), float(doc["line"]["normal"][1])),
    )
    return LabeledSample(
        window=window,
        arrival_time=float(doc["arrival_time"]),
        category=category,
        q=TargetLocation(AgentKind(doc["kind"]), int(doc["q"]), line),
        awareness=Awareness(int(doc["awareness"])),
        reaction=Reaction(int(doc["reaction"])),
        risk_level=int(doc["risk_level"]),
    )


def read_samples_jsonl(path: str) -> list[LabeledSample]:
    """Read a labeled-samples file. A line that is not valid JSON, lacks a key,
    has t/x/y of unequal length or other than WINDOW_SIZE points, a non-finite
    or non-increasing time, a non-finite coordinate, or an arrival time that
    is not finite and >= 0 raises ManifestError naming path:line."""
    samples = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    samples.append(_parse_sample(json.loads(raw)))
                except KeyError as exc:
                    raise ManifestError(f"{path}:{lineno}: sample lacks key {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ManifestError(f"{path}:{lineno}: bad sample: {exc}") from exc
    except OSError as exc:
        raise ManifestError(f"cannot read labeled samples {path}: {exc}") from exc
    return samples
