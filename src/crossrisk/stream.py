"""Per-frame observation ingestion, trajectory buffering, sliding windows,
the target-pedestrian lifecycle, and whole-path agent tracks.

The engine is a single-writer state machine: ingest_frame calls must arrive
serialized in frame order. Snapshot queries are read-only.
"""

from __future__ import annotations

import csv
import math
import time
from array import array
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CategoryChanged,
    DuplicateAgentInFrame,
    InsufficientHistory,
    ManifestError,
    NonIncreasingTime,
    OutOfOrderFrame,
    UnknownDirection,
)
from .files import input_lines, open_output
from .geometry import AreaMap, PixelPoint, TargetLine, WorldPoint, first_crossing_time, load_tile_grid, locate_areas
from .geometry import pedestrian_line_name, transform_point, vehicle_line_name

FPS = 30                   # frames per second of every stream
WINDOW_SIZE = 30           # points per sliding window (1 s at FPS)
MAX_INTERPOLATED_GAP = 5    # missed frames repaired by linear interpolation
DIRECTION_DEAD_BAND_M = 0.2


class AgentCategory(IntEnum):
    """Agent classes; vehicle classes are split by approach zone."""

    ADULT = 0
    KID = 1
    CYCLIST = 2
    VEHICLE_AREA_41 = 3
    VEHICLE_AREA_42 = 4

    @property
    def is_pedestrian(self) -> bool:
        return self in (AgentCategory.ADULT, AgentCategory.KID, AgentCategory.CYCLIST)

    @property
    def is_vehicle(self) -> bool:
        return not self.is_pedestrian

    @property
    def conflict_area(self) -> str | None:
        """Conflict area served by this vehicle class (None for pedestrians)."""
        if self is AgentCategory.VEHICLE_AREA_41:
            return "3.1"
        if self is AgentCategory.VEHICLE_AREA_42:
            return "3.2"
        return None

    @property
    def target_count(self) -> int:
        """How many target lines (q) an agent of this class has: see target_lines."""
        return 3 if self.is_pedestrian else 2


@dataclass(frozen=True, slots=True)
class Observation:
    """One time-stamped world-coordinate point of one agent."""

    frame: int
    t: float
    agent_id: str
    category: AgentCategory
    position: WorldPoint


@dataclass(frozen=True, eq=False, slots=True)
class SlidingWindowTrajectory:
    """WINDOW_SIZE consecutive points of one agent, as arrays.

    Point i is frame first_frame + i at times[i] (seconds), with world
    position positions[i] (metres); times has shape (WINDOW_SIZE,) and
    positions (WINDOW_SIZE, 2).
    """

    agent_id: str
    category: AgentCategory
    first_frame: int
    times: np.ndarray
    positions: np.ndarray
    _end: WorldPoint | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.times.shape != (WINDOW_SIZE,) or self.positions.shape != (WINDOW_SIZE, 2):
            raise ValueError(
                f"window must hold times ({WINDOW_SIZE},) and positions ({WINDOW_SIZE}, 2), "
                f"got {self.times.shape} and {self.positions.shape}"
            )

    @property
    def end_position(self) -> WorldPoint:
        """The last point, built on the first read and kept."""
        if self._end is None:
            object.__setattr__(self, "_end", WorldPoint(*self.positions[-1].tolist()))
        return self._end


class TrajectoryBuffer:
    """Ring of one agent's most recent WINDOW_SIZE points, with gap repair.

    Gaps of up to MAX_INTERPOLATED_GAP missed frames are filled by linear
    interpolation; anything longer resets the buffer because the window
    would be semantically stale. Point rows (frame, t, x, y) live in a
    preallocated array of 2 * WINDOW_SIZE rows, each written at slot i and
    i + WINDOW_SIZE, so the buffered points are always one contiguous slice.
    `last` is the last real observation and `area` its area, set by
    StreamEngine.ingest_frame (both None once cleared); `last_t` is its time,
    kept through clear() so the agent's time keeps increasing across episodes.
    """

    def __init__(self, agent_id: str, category: AgentCategory):
        self.agent_id = agent_id
        self.category = category
        self._rows = np.empty((2 * WINDOW_SIZE, 4))
        self._next = 0  # slot the next point is written to
        self._count = 0
        self.last: Observation | None = None
        self.area: str | None = None
        self.last_t = -math.inf

    def __len__(self) -> int:
        return self._count

    def _span(self) -> np.ndarray:
        """The buffered rows, oldest first."""
        start = (self._next - self._count) % WINDOW_SIZE
        return self._rows[start:start + self._count]

    def _push(self, frame: int, t: float, x: float, y: float) -> None:
        i = self._next
        rows = self._rows
        rows[i] = (frame, t, x, y)
        rows[i + WINDOW_SIZE] = rows[i]
        self._next = (i + 1) % WINDOW_SIZE
        if self._count < WINDOW_SIZE:
            self._count += 1

    def clear(self) -> None:
        self._count = 0
        self.last = None
        self.area = None

    def append(self, obs: Observation) -> None:
        self.last_t = obs.t
        last = self.last
        p = obs.position
        if last is not None:
            gap = obs.frame - last.frame
            if gap <= 0:
                raise OutOfOrderFrame(
                    f"agent {self.agent_id}: frame {obs.frame} after {last.frame}"
                )
            if gap > MAX_INTERPOLATED_GAP + 1:
                self.clear()
            else:
                q = last.position
                for step in range(1, gap):
                    frac = step / gap
                    self._push(
                        last.frame + step,
                        last.t + frac * (obs.t - last.t),
                        q.x + frac * (p.x - q.x),
                        q.y + frac * (p.y - q.y),
                    )
        self.last = obs
        self._push(obs.frame, obs.t, p.x, p.y)

    @property
    def window_ready(self) -> bool:
        return self._count >= WINDOW_SIZE

    def net_dx(self) -> float:
        """x displacement from the oldest buffered point to the newest."""
        # slots i and i + WINDOW_SIZE hold the same point, so negative indices reach it
        rows = self._rows
        return float(rows[self._next - 1, 2] - rows[self._next - self._count, 2])

    def observations(self) -> tuple[Observation, ...]:
        """The buffered points, interpolated ones included, oldest first."""
        return tuple(
            Observation(int(frame), t, self.agent_id, self.category, WorldPoint(x, y))
            for frame, t, x, y in self._span().tolist()
        )


def window(buffer: TrajectoryBuffer) -> SlidingWindowTrajectory:
    """Most recent full sliding window of the buffer: its whole ring."""
    if len(buffer) < WINDOW_SIZE:
        raise InsufficientHistory(
            f"agent {buffer.agent_id}: {len(buffer)} of {WINDOW_SIZE} points buffered"
        )
    span = buffer._span()
    return SlidingWindowTrajectory(
        buffer.agent_id,
        buffer.category,
        int(span[0, 0]),
        span[:, 1].copy(),
        span[:, 2:].copy(),
    )


class Direction(Enum):
    LEFT_TO_RIGHT = "ltr"
    RIGHT_TO_LEFT = "rtl"
    UNKNOWN = "unknown"


def _direction_of(dx: float) -> Direction:
    """Crossing direction from a net x displacement, with a jitter dead band."""
    if dx > DIRECTION_DEAD_BAND_M:
        return Direction.LEFT_TO_RIGHT
    if dx < -DIRECTION_DEAD_BAND_M:
        return Direction.RIGHT_TO_LEFT
    return Direction.UNKNOWN


def closer_further_assignment(direction: Direction) -> tuple[str, str]:
    """Which conflict area the pedestrian reaches first and second."""
    if direction is Direction.LEFT_TO_RIGHT:
        return ("3.1", "3.2")
    if direction is Direction.RIGHT_TO_LEFT:
        return ("3.2", "3.1")
    raise UnknownDirection("closer/further assignment needs a known direction")


def target_lines(area_map: AreaMap, category: AgentCategory, direction: Direction) -> tuple[TargetLine, ...]:
    """An agent's target lines in q order: q0-q2 of a pedestrian's crossing
    direction, or the enter and leave lines of the conflict area its vehicle
    class serves, whatever the direction. A pedestrian of unknown direction
    raises UnknownDirection, a line the area map lacks KeyError."""
    if category.is_vehicle:
        names = [vehicle_line_name(category.conflict_area, enter) for enter in (True, False)]
    elif direction is Direction.UNKNOWN:
        raise UnknownDirection("a pedestrian's target lines need a known direction")
    else:
        names = [pedestrian_line_name(direction.value, q) for q in range(category.target_count)]
    return tuple(map(area_map.line, names))


def target_line_table(area_map: AreaMap) -> dict[tuple[AgentCategory, Direction], tuple[TargetLine, ...]]:
    """target_lines of every category and known direction: every line an
    agent can need, so a line the area map lacks raises KeyError here."""
    known = (Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT)
    return {(c, d): target_lines(area_map, c, d) for c in AgentCategory for d in known}


class PedestrianStatus(Enum):
    NON_TARGET = "non_target"
    TARGET = "target"
    EXITED = "exited"


@dataclass
class PedestrianState:
    """Mutable lifecycle state of one pedestrian episode."""

    agent_id: str
    category: AgentCategory
    status: PedestrianStatus = PedestrianStatus.NON_TARGET
    current_area: str | None = None
    direction: Direction = Direction.UNKNOWN
    episode: int = 0
    risk_counters: dict[str, int] = field(default_factory=dict)


def _check_continues(category: AgentCategory, last_t: float, obs: Observation) -> None:
    """Raise unless obs can follow an agent's earlier observations of the given
    category, the last one at time last_t."""
    if obs.category is not category:
        raise CategoryChanged(
            f"agent {obs.agent_id} is category {int(obs.category)} in frame {obs.frame}, "
            f"category {int(category)} before"
        )
    if obs.t <= last_t:
        raise NonIncreasingTime(
            f"agent {obs.agent_id} is at t={obs.t!r} in frame {obs.frame}, "
            f"not after its previous t={last_t!r}"
        )


@dataclass(frozen=True, eq=False)
class Track:
    """One agent's whole path: frames (N,), times (N,) and positions (N, 2),
    all read-only; its crossing direction (a pedestrian's from its net x
    displacement, UNKNOWN for a vehicle); and its (q, line) targets, the
    target_lines of that direction (none when it is unknown)."""

    agent_id: str
    category: AgentCategory
    frames: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    direction: Direction
    targets: tuple[tuple[int, TargetLine], ...]

    @classmethod
    def from_observations(cls, observations: Sequence[Observation], area_map: AreaMap) -> Track:
        """The track of one agent's observations, in frame order."""
        first = observations[0]
        frames = np.array([o.frame for o in observations])
        times = np.array([o.t for o in observations])
        positions = np.array([(o.position.x, o.position.y) for o in observations])
        # windows are overlapping views of these arrays
        frames.flags.writeable = times.flags.writeable = positions.flags.writeable = False
        direction = Direction.UNKNOWN
        if first.category.is_pedestrian:
            direction = _direction_of(positions[-1, 0] - positions[0, 0])
        try:
            targets = tuple(enumerate(target_lines(area_map, first.category, direction)))
        except UnknownDirection:
            targets = ()
        return cls(first.agent_id, first.category, frames, times, positions, direction, targets)

    @cached_property
    def crossings(self) -> list[float | None]:
        """The first crossing time of each target line, in targets' order;
        None where the path never reaches it."""
        return [first_crossing_time(self.positions, self.times, line) for _, line in self.targets]


def agent_tracks(frames: Iterable[tuple[int, Sequence[Observation]]], area_map: AreaMap) -> list[Track]:
    """Each agent's Track, agents sorted by id, from (frame, observations) pairs in frame order.

    An agent whose category changes or whose time does not strictly increase
    raises, as StreamEngine.ingest_frame does.
    """
    by_agent: dict[str, list[Observation]] = {}
    for _, frame_obs in frames:
        for obs in frame_obs:
            observations = by_agent.setdefault(obs.agent_id, [])
            if observations:
                _check_continues(observations[-1].category, observations[-1].t, obs)
            observations.append(obs)
    return [Track.from_observations(by_agent[k], area_map) for k in sorted(by_agent)]


# Areas that promote a pedestrian to Target.
_TARGET_ENTRY_PREFIXES = ("1.", "2.", "3.")


class StreamEngine:
    """Frame-ordered ingestion plus the Target/NonTarget pedestrian lifecycle.

    Pedestrians become Target when they enter Area 1 (or are first seen
    already inside Areas 2-3); a Target leaving Area 3 exits the episode and
    its trajectory buffer is cleared. An exited pedestrian starts a new
    episode only when it enters Area 1 from outside every area, not when it
    walks on from Area 2 into the far Area 1. Vehicles are buffered without
    lifecycle.
    """

    def __init__(self, area_map: AreaMap):
        self.area_map = area_map
        self.buffers: dict[str, TrajectoryBuffer] = {}
        self.pedestrians: dict[str, PedestrianState] = {}
        self.last_frame: int | None = None

    def buffer(self, agent_id: str) -> TrajectoryBuffer:
        return self.buffers[agent_id]

    def window_ready(self, agent_id: str) -> bool:
        buf = self.buffers.get(agent_id)
        return buf is not None and buf.window_ready

    def window(self, agent_id: str) -> SlidingWindowTrajectory:
        return window(self.buffers[agent_id])

    def agents_in_areas(
        self, categories: Iterable[AgentCategory], prefixes: Sequence[str]
    ) -> list[tuple[str, WorldPoint]]:
        """(agent_id, position) for agents of the given categories whose last
        observation lies in an area matching one of the name prefixes."""
        wanted = set(categories)
        prefixes = tuple(prefixes)
        return [
            (agent_id, buf.last.position)
            for agent_id, buf in self.buffers.items()
            if buf.category in wanted and buf.area is not None and buf.area.startswith(prefixes)
        ]

    def ingest_frame(self, frame: int, observations: Sequence[Observation]) -> None:
        """Feed one frame of observations, locating the whole frame's areas
        in one call; the whole frame is checked before any state changes."""
        if self.last_frame is not None and frame != self.last_frame + 1:
            raise OutOfOrderFrame(f"expected frame {self.last_frame + 1}, got {frame}")
        seen: set[str] = set()
        for obs in observations:
            if obs.frame != frame:
                raise OutOfOrderFrame(
                    f"observation for agent {obs.agent_id} carries frame "
                    f"{obs.frame}, expected {frame}"
                )
            if obs.agent_id in seen:
                raise DuplicateAgentInFrame(f"agent {obs.agent_id} twice in frame {frame}")
            seen.add(obs.agent_id)
            buf = self.buffers.get(obs.agent_id)
            if buf is not None:
                _check_continues(buf.category, buf.last_t, obs)
        self.last_frame = frame

        areas = locate_areas(
            self.area_map, [o.position.x for o in observations], [o.position.y for o in observations]
        )
        for obs, area in zip(observations, areas):
            buf = self.buffers.get(obs.agent_id)
            if buf is None:
                buf = TrajectoryBuffer(obs.agent_id, obs.category)
                self.buffers[obs.agent_id] = buf
            buf.append(obs)
            buf.area = area
            if obs.category.is_pedestrian:
                self._step_pedestrian(obs, buf)

    def _step_pedestrian(self, obs: Observation, buf: TrajectoryBuffer) -> None:
        area = buf.area
        state = self.pedestrians.get(obs.agent_id)
        if state is None:
            state = PedestrianState(obs.agent_id, obs.category)
            self.pedestrians[obs.agent_id] = state

        prev_area = state.current_area
        state.current_area = area
        state.direction = _direction_of(buf.net_dx())

        if state.status is PedestrianStatus.TARGET:
            left_conflict = (
                prev_area is not None
                and prev_area.startswith("3.")
                and (area is None or not area.startswith("3."))
            )
            if left_conflict:
                state.status = PedestrianStatus.EXITED
                state.risk_counters.clear()
                buf.clear()
            return

        # NonTarget (or exited, starting a fresh episode) entering the crossing
        enters = area is not None and area.startswith(_TARGET_ENTRY_PREFIXES)
        if state.status is PedestrianStatus.EXITED:
            enters = prev_area is None and area is not None and area.startswith("1.")
        if enters:
            state.status = PedestrianStatus.TARGET
            state.episode += 1
            state.risk_counters.clear()


# --- stream files -------------------------------------------------------------

STREAM_HEADER_WORLD = ["frame", "t", "id", "category", "x", "y"]
STREAM_HEADER_PIXEL = ["frame", "t", "id", "category", "u", "v"]


def write_stream_csv(path: str, frames: Iterable[Sequence[Observation]]) -> None:
    """Write frames of observations as the world-coordinate stream format."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STREAM_HEADER_WORLD)
        for frame_obs in frames:
            for o in frame_obs:
                writer.writerow(
                    [o.frame, repr(o.t), o.agent_id, int(o.category), repr(o.position.x), repr(o.position.y)]
                )


# One parsed stream row: (t, agent id, category, point).
StreamRow = tuple[float, str, AgentCategory, WorldPoint | PixelPoint]


@contextmanager
def open_stream(path: str) -> Iterator[tuple[type, Iterator[tuple[int, list[StreamRow]]]]]:
    """Open a stream CSV as (point class, (frame, rows) per frame with rows, in
    file order): WorldPoint under the (x, y) header, untransformed PixelPoint
    under (u, v). A row that is short, does not parse, has a non-finite time or
    coordinate, or is from an earlier frame raises ManifestError naming path:line."""
    with closing(input_lines(path, "stream")) as lines:
        reader = csv.reader(lines)
        header = next(reader, None)
        if header == STREAM_HEADER_WORLD:
            point = WorldPoint
        elif header == STREAM_HEADER_PIXEL:
            point = PixelPoint
        else:
            raise ManifestError(f"{path}: unrecognized stream header {header}")
        yield point, _frame_rows(path, reader, point)


def _frame_rows(path: str, reader, point: type) -> Iterator[tuple[int, list[StreamRow]]]:
    """The rows grouped by frame, each frame yielded once the next one starts.

    Values that repeat are parsed once and shared: a frame number while its
    text repeats, an agent's id in every row of the stream, and a row's time
    where its text is the previous row's (text, not value, so that -0.0
    keeps its sign)."""
    current, rows = None, []
    ids: dict[str, str] = {}
    frame_text = t_text = None
    for row in reader:
        if not row:
            continue
        try:
            if row[0] != frame_text:
                frame, frame_text = int(row[0]), row[0]
            if row[1] != t_text:
                t = float(row[1])
                if not math.isfinite(t):
                    raise ValueError(f"time must be finite, got {t}")
                t_text = row[1]
            agent_id = ids.setdefault(row[2], row[2])
            parsed = (t, agent_id, AgentCategory(int(row[3])), point(float(row[4]), float(row[5])))
            if current is not None and frame < current:
                raise ValueError(f"frame {frame} comes after frame {current}")
        except (IndexError, ValueError) as exc:
            raise ManifestError(f"{path}:{reader.line_num}: bad stream row {row}: {exc}") from exc
        if frame != current:
            if rows:
                yield current, rows
            current, rows = frame, []
        rows.append(parsed)
    if rows:
        yield current, rows


def read_frames(path: str, tile_grid: str | None = None) -> tuple[Iterator[tuple[int, list[Observation]]], array]:
    """A stream CSV as (frame, world observations) per frame with rows, each read
    from the file only when asked for, and the time (ms) spent building each
    frame's observations, in an array('d') appended to as each frame is read. A
    world header (x, y) ignores tile_grid; a pixel header (u, v) requires it,
    and each frame's rows go through that tile-grid file, read on the first
    frame asked for."""
    transform_ms = array("d")

    def frames() -> Iterator[tuple[int, list[Observation]]]:
        with open_stream(path) as (point, rows):
            if point is PixelPoint and tile_grid is None:
                raise ManifestError(f"{path} is a pixel stream; a tile grid is required")
            grid = load_tile_grid(tile_grid) if point is PixelPoint else None
            for frame, frame_rows in rows:
                t0 = time.perf_counter()
                observations = [
                    Observation(frame, t, agent_id, category, p if grid is None else transform_point(grid, p))
                    for t, agent_id, category, p in frame_rows
                ]
                transform_ms.append((time.perf_counter() - t0) * 1000.0)
                yield frame, observations

    return frames(), transform_ms


def read_stream_csv(path: str) -> dict[int, list[Observation]]:
    """Read a world-coordinate stream CSV into frame -> observations."""
    return dict(read_frames(path)[0])
