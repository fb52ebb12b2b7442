"""Labeled-dataset construction: sliding windows paired with the ground-truth
seconds-to-target measured on the complete trajectory."""

from __future__ import annotations

import json
import logging
import math
from contextlib import closing
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np

from ..errors import ManifestError
from ..files import input_lines, open_output
from ..geometry import TargetLine, WorldPoint
from ..stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory, Track

log = logging.getLogger(__name__)


class Awareness(IntEnum):
    DID_NOT_NOTICE = 0
    NOTICED = 1


@dataclass(frozen=True, slots=True)
class LabeledSample:
    """A sliding window with the true seconds to its agent's target line q,
    `line`, at its end point."""

    window: SlidingWindowTrajectory
    arrival_time: float
    q: int
    line: TargetLine
    awareness: Awareness = Awareness.DID_NOT_NOTICE

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0.0:
            raise ValueError(f"arrival time must be finite and >= 0, got {self.arrival_time}")
        if not 0 <= self.q < self.category.target_count:
            raise ValueError(f"q={self.q} invalid for category {int(self.category)}")

    @property
    def category(self) -> AgentCategory:
        return self.window.category


def build_labeled_dataset(
    tracks: Sequence[Track], awareness: Mapping[str, Awareness] | None = None
) -> list[LabeledSample]:
    """Emit every pre-crossing sliding window paired with its arrival time.

    For each track and each of its targets q the label of window j is the
    crossing time minus the window-end time; windows ending after the agent
    passed q are excluded. Tracks without targets, and targets a track never
    reaches, are skipped and logged. An agent missing from `awareness` did not
    notice the threat. The windows are slices of each track's arrays.
    """
    awareness = awareness or {}
    samples: list[LabeledSample] = []
    for track in tracks:
        n = len(track.times)
        if n < WINDOW_SIZE:
            continue
        agent_id, category = track.agent_id, track.category
        noticed = awareness.get(agent_id, Awareness.DID_NOT_NOTICE)
        if not track.targets:
            log.info("agent %s skipped: no resolvable targets", agent_id)
            continue
        frames, times = track.frames.tolist(), track.times.tolist()
        for (q, line), t_cross in zip(track.targets, track.crossings):
            if t_cross is None:
                log.info("agent %s never crosses q=%d", agent_id, q)
                continue
            for j in range(n - WINDOW_SIZE + 1):
                end = j + WINDOW_SIZE
                if frames[end - 1] - frames[j] != WINDOW_SIZE - 1:
                    continue  # gap in the stored trajectory
                t_end = times[end - 1]
                if t_end > t_cross:
                    break
                samples.append(
                    LabeledSample(
                        window=SlidingWindowTrajectory(
                            agent_id, category, frames[j], track.times[j:end], track.positions[j:end]
                        ),
                        arrival_time=t_cross - t_end,
                        q=q,
                        line=line,
                        awareness=noticed,
                    )
                )
    return samples


# --- labeled-samples file (JSON lines, one agent per line) -------------------

SAMPLES_FORMAT = "crossrisk-samples"
SAMPLES_VERSION = 3
_HEADER = json.dumps({"format": SAMPLES_FORMAT, "version": SAMPLES_VERSION}, sort_keys=True)
_WINDOW_ROWS = np.arange(WINDOW_SIZE)


def _kind(category: AgentCategory) -> str:
    """The "kind" a samples file writes on each target of an agent."""
    return "pedestrian" if category.is_pedestrian else "vehicle"


def _runs(keys: Sequence, what: str) -> list[tuple[int, int]]:
    """(start, end) of each run of equal consecutive keys; ValueError when a
    key has more than one run, i.e. its samples are not contiguous."""
    if not keys:
        return []
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    runs = list(zip([0, *cuts], [*cuts, len(keys)]))
    firsts = [keys[start] for start, _ in runs]
    if len(set(firsts)) != len(firsts):
        raise ValueError(f"the samples of each {what} must be contiguous")
    return runs


def _agent_doc(samples: Sequence[LabeledSample]) -> dict:
    """One agent's samples as its point table plus each target's window
    first frames and arrival times."""
    head = samples[0]
    agent_id = head.window.agent_id
    context = (head.category, head.awareness)
    if any((s.category, s.awareness) != context for s in samples):
        raise ValueError(f"agent {agent_id}: samples carry different category or awareness")
    first_frames = np.array([s.window.first_frame for s in samples], dtype=np.int64)
    times = np.stack([s.window.times for s in samples]).astype(float, copy=False)
    positions = np.stack([s.window.positions for s in samples]).astype(float, copy=False)
    frames, rows = np.unique(first_frames[:, None] + _WINDOW_ROWS, return_inverse=True)
    rows = rows.reshape(len(samples), WINDOW_SIZE)
    t = np.empty(len(frames))
    xy = np.empty((len(frames), 2))
    t[rows] = times
    xy[rows] = positions
    # every window must read back its own bits from the one table
    if not (
        np.array_equal(t[rows].view(np.int64), times.view(np.int64))
        and np.array_equal(xy[rows].view(np.int64), positions.view(np.int64))
    ):
        raise ValueError(f"agent {agent_id}: windows disagree at a shared frame")
    kind = _kind(head.category)
    targets = []
    for start, end in _runs([(s.q, s.line) for s in samples], f"target of agent {agent_id}"):
        q, line = samples[start].q, samples[start].line
        targets.append({
            "kind": kind,
            "q": q,
            "line": {"p0": [line.p0.x, line.p0.y], "p1": [line.p1.x, line.p1.y], "normal": list(line.normal)},
            "first_frames": first_frames[start:end].tolist(),
            "arrival_time": [s.arrival_time for s in samples[start:end]],
        })
    return {
        "agent_id": agent_id,
        "category": int(head.category),
        "awareness": int(head.awareness),
        "frames": frames.tolist(),
        "t": t.tolist(),
        "x": xy[:, 0].tolist(),
        "y": xy[:, 1].tolist(),
        "targets": targets,
    }


def write_samples_jsonl(path: str, samples: Sequence[LabeledSample]) -> None:
    """Write a version-3 labeled-samples file: a header line, then one line
    per agent holding its points once and its windows as first frames.

    Raises ValueError, before writing anything, unless each agent's samples
    and each target's samples within an agent are contiguous (as
    build_labeled_dataset emits them), and unless an agent's windows agree
    bit for bit at every shared frame and carry one category and awareness.
    """
    agents = [s.window.agent_id for s in samples]
    lines = [_HEADER]
    lines.extend(
        json.dumps(_agent_doc(samples[start:end]), sort_keys=True) for start, end in _runs(agents, "agent")
    )
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _int_array(values: Sequence, what: str) -> np.ndarray:
    array = np.array(values)
    if array.size and array.dtype.kind != "i":
        raise ValueError(f"{what} must be integers")
    return array.astype(np.int64)


def _parse_agent(doc: Mapping) -> list[LabeledSample]:
    agent_id = doc["agent_id"]
    category = AgentCategory(int(doc["category"]))
    awareness = Awareness(int(doc["awareness"]))
    points = [doc[key] for key in ("frames", "t", "x", "y")]
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise ValueError("frames, t, x and y hold {}, {}, {} and {} points".format(*map(len, points)))
    if n < WINDOW_SIZE:
        raise ValueError(f"agent holds {n} points, fewer than one window's {WINDOW_SIZE}")
    frames = _int_array(points[0], "frames")
    times = np.array(points[1], dtype=float)
    positions = np.column_stack([np.array(points[2], dtype=float), np.array(points[3], dtype=float)])
    if not (np.isfinite(times).all() and np.isfinite(positions).all()):
        raise ValueError("t, x and y must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("t must strictly increase")
    if np.any(np.diff(frames) <= 0):
        raise ValueError("frames must strictly increase")
    # the windows are overlapping views of these arrays
    times.flags.writeable = positions.flags.writeable = False
    samples = []
    for target in doc["targets"]:
        if target["kind"] != _kind(category):
            raise ValueError(f"target kind {target['kind']!r} contradicts category {int(category)}")
        line = TargetLine(
            WorldPoint(*map(float, target["line"]["p0"])),
            WorldPoint(*map(float, target["line"]["p1"])),
            (float(target["line"]["normal"][0]), float(target["line"]["normal"][1])),
        )
        q = int(target["q"])
        first_frames, arrivals = _int_array(target["first_frames"], "first_frames"), target["arrival_time"]
        if len(first_frames) != len(arrivals):
            raise ValueError(f"{len(first_frames)} first_frames but {len(arrivals)} arrival times")
        starts = np.searchsorted(frames, first_frames)
        missing = (starts >= n) | (frames[np.minimum(starts, n - 1)] != first_frames)
        if missing.any():
            raise ValueError(f"first frame {first_frames[missing][0]} is not in frames")
        ends = starts + (WINDOW_SIZE - 1)
        broken = (ends >= n) | (frames[np.minimum(ends, n - 1)] - first_frames != WINDOW_SIZE - 1)
        if broken.any():
            raise ValueError(
                f"window at first frame {first_frames[broken][0]} does not span "
                f"{WINDOW_SIZE} consecutive frames"
            )
        for first_frame, i, arrival in zip(first_frames.tolist(), starts.tolist(), arrivals):
            end = i + WINDOW_SIZE
            samples.append(
                LabeledSample(
                    window=SlidingWindowTrajectory(
                        agent_id, category, first_frame, times[i:end], positions[i:end]
                    ),
                    arrival_time=float(arrival),
                    q=q,
                    line=line,
                    awareness=awareness,
                )
            )
    return samples


def _check_header(path: str, raw: str) -> None:
    try:
        header = json.loads(raw)
    except ValueError:
        header = None
    if not (
        isinstance(header, dict)
        and header.get("format") == SAMPLES_FORMAT
        and header.get("version") == SAMPLES_VERSION
    ):
        raise ManifestError(
            f"{path}:1: not a version-{SAMPLES_VERSION} labeled-samples file (first line must be "
            f"{_HEADER}); re-run build-dataset to rewrite it"
        )


def read_samples_jsonl(path: str) -> list[LabeledSample]:
    """Read a version-3 labeled-samples file back into the samples written,
    in their order; each window is a read-only 30-row slice of its agent's
    arrays.

    A first line other than the version-3 header, or an agent line that is
    not valid JSON, lacks a key, has frames/t/x/y of unequal length or fewer
    than WINDOW_SIZE points, a non-finite or non-increasing time, a
    non-finite coordinate, non-increasing frames, a target whose kind
    contradicts the agent's category, whose q is outside the category's
    range or whose first_frames and arrival_time differ in length, a first
    frame missing from frames, a window whose WINDOW_SIZE rows are not
    consecutive frames, or an arrival time that is not finite and >= 0
    raises ManifestError naming path:line.
    """
    samples = []
    with closing(input_lines(path, "labeled samples")) as lines:
        _check_header(path, next(lines, ""))
        for lineno, raw in enumerate(lines, start=2):
            if not raw.strip():
                continue
            try:
                samples.extend(_parse_agent(json.loads(raw)))
            except KeyError as exc:
                raise ManifestError(f"{path}:{lineno}: agent lacks key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ManifestError(f"{path}:{lineno}: bad agent: {exc}") from exc
    return samples

