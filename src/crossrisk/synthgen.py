"""Deterministic synthetic intersection scenarios.

Generates observation streams plus ground truth (crossing times, awareness
annotations, risk labels) for a reference T-intersection layout: an 11 m
crosswalk along x with two vehicle lanes crossing it. Labels are always
computed from the realized sampled kinematics, never from generator intent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InfeasibleSpec, ManifestError
from .files import read_json, write_json
from .geometry import (
    AreaMap,
    PixelPoint,
    TargetLine,
    TileGrid,
    WorldPoint,
    locate_areas,
    pedestrian_line_name,
    signed_distance_to_line,
    tile_from_anchors,
    vehicle_line_name,
)
from .ppet import AREA_LINES, pet
from .predictors.dataset import Awareness
from .risk import AREAS, RiskLevel, in_evaluation_zone
from .stream import (
    FPS,
    AgentCategory,
    Direction,
    Observation,
    Track,
    closer_further_assignment,
    target_lines,
)

# --- reference site layout ------------------------------------------------------

CROSSWALK_START_X = 0.0
CROSSWALK_CENTER_X = 5.5
CROSSWALK_END_X = 11.0
BAND_Y_LO, BAND_Y_HI = -1.0, 3.0   # vertical extent of the walking corridor
VEHICLE_ZONE_Y_HI = 28.0
LANE_A_X = 2.75    # straight lane through conflict area 3.1
LANE_B_X = 8.25    # curved approach into conflict area 3.2

# Generator-internal ground-truth labeling rules (not engine thresholds):
# realized |PET| below this marks a severe conflict, and a smoothed speed
# change of at least 30% against the approach baseline marks evasive action.
LABEL_PET_SEVERE_S = 1.5
LABEL_SPEED_CHANGE = 0.30
INTERACTION_HORIZON_S = 60.0

# Generator kinematics and behaviour, the same for every scenario.
ADULT_CROSSING_S = 5.49             # mean crossing duration per category
KID_CROSSING_S = 5.36
CYCLIST_CROSSING_S = 3.01
CROSSING_JITTER = 0.06              # relative sd of per-agent crossing duration
SPEED_NOISE = 0.02                  # per-frame relative forward-speed noise
LATERAL_NOISE_M = 0.01              # detector-style lateral jitter
KID_LATERAL_SIGMA = 0.06            # OU lateral drive, closer half
KID_LATERAL_SIGMA_FURTHER = 0.12    # OU lateral drive, further half
RTL_FRACTION = 0.5                  # pedestrians crossing right to left
VEHICLE_SPEED_MPS = 8.0             # vehicle speed mean and sd
VEHICLE_SPEED_SD = 1.0
NOTICE_PROBABILITY = 0.36           # pedestrians that notice a threat
DECELERATE_PROBABILITY = 0.8        # of those, the ones that slow down
REACTION_DELAY_S = (0.4, 1.0)       # uniform human latency before reacting

# The largest spec a run accepts, so that generation is bounded.
MAX_AGENTS_PER_CATEGORY = 100_000
MAX_DURATION_S = 86_400.0


def _rect(x0: float, x1: float, y0: float, y1: float) -> tuple[WorldPoint, ...]:
    return (
        WorldPoint(x0, y0),
        WorldPoint(x1, y0),
        WorldPoint(x1, y1),
        WorldPoint(x0, y1),
    )


def reference_area_map() -> AreaMap:
    """Synthetic site: approach/react zones left and right, two conflict
    areas over the vehicle lanes, and vehicle approach zones above. The
    react zones are 7 m deep so even fast cyclists spend well over a second
    there; zone 4.2 extends east to cover the curved approach."""
    areas = {
        "1.1": _rect(-11.0, -7.0, BAND_Y_LO, BAND_Y_HI),
        "2.1": _rect(-7.0, CROSSWALK_START_X, BAND_Y_LO, BAND_Y_HI),
        "3.1": _rect(CROSSWALK_START_X, CROSSWALK_CENTER_X, BAND_Y_LO, BAND_Y_HI),
        "3.2": _rect(CROSSWALK_CENTER_X, CROSSWALK_END_X, BAND_Y_LO, BAND_Y_HI),
        "2.2": _rect(CROSSWALK_END_X, 18.0, BAND_Y_LO, BAND_Y_HI),
        "1.2": _rect(18.0, 22.0, BAND_Y_LO, BAND_Y_HI),
        "4.1": _rect(CROSSWALK_START_X, CROSSWALK_CENTER_X, BAND_Y_HI, VEHICLE_ZONE_Y_HI),
        "4.2": _rect(CROSSWALK_CENTER_X, 18.0, BAND_Y_HI, VEHICLE_ZONE_Y_HI),
    }

    def vline(x: float, nx: float) -> TargetLine:
        return TargetLine(WorldPoint(x, BAND_Y_LO), WorldPoint(x, BAND_Y_HI), (nx, 0.0))

    def hline(y: float, x0: float, x1: float) -> TargetLine:
        return TargetLine(WorldPoint(x0, y), WorldPoint(x1, y), (0.0, -1.0))

    lines = {
        pedestrian_line_name("ltr", 0): vline(CROSSWALK_START_X, 1.0),
        pedestrian_line_name("ltr", 1): vline(CROSSWALK_CENTER_X, 1.0),
        pedestrian_line_name("ltr", 2): vline(CROSSWALK_END_X, 1.0),
        pedestrian_line_name("rtl", 0): vline(CROSSWALK_END_X, -1.0),
        pedestrian_line_name("rtl", 1): vline(CROSSWALK_CENTER_X, -1.0),
        pedestrian_line_name("rtl", 2): vline(CROSSWALK_START_X, -1.0),
        vehicle_line_name("3.1", True): hline(BAND_Y_HI, CROSSWALK_START_X, CROSSWALK_CENTER_X),
        vehicle_line_name("3.1", False): hline(BAND_Y_LO, CROSSWALK_START_X, CROSSWALK_CENTER_X),
        vehicle_line_name("3.2", True): hline(BAND_Y_HI, CROSSWALK_CENTER_X, CROSSWALK_END_X),
        vehicle_line_name("3.2", False): hline(BAND_Y_LO, CROSSWALK_CENTER_X, CROSSWALK_END_X),
    }
    return AreaMap(areas, lines)


# Synthetic oblique camera used to derive the reference pixel grid. Chosen so
# the whole site projects with positive homogeneous scale and visible extent.
_CAMERA_WORLD_TO_PIXEL = np.array(
    [
        [38.0, -9.0, 640.0],
        [2.0, -26.0, 820.0],
        [0.0, -0.011, 1.0],
    ]
)


def reference_tile_grid() -> TileGrid:
    """Tiled calibration of the synthetic camera over x in [-12, 24] m and
    y in [-2, 4] m: one projective map per 2 m square, solved from its four
    corner anchors."""
    tiles = []
    for y0 in (-2.0, 0.0, 2.0):
        for x0 in (-12.0 + 2.0 * i for i in range(18)):
            world = _rect(x0, x0 + 2.0, y0, y0 + 2.0)
            tiles.append(tile_from_anchors(tuple(map(camera_pixel_of, world)), world))
    return TileGrid(tuple(tiles))


def camera_pixel_of(p: WorldPoint) -> PixelPoint:
    """Project a world point through the synthetic camera (world -> pixel)."""
    vec = _CAMERA_WORLD_TO_PIXEL @ np.array([p.x, p.y, 1.0])
    return PixelPoint(float(vec[0] / vec[2]), float(vec[1] / vec[2]))


# --- scenario specification -----------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Knobs of the deterministic scenario generator."""

    seed: int = 0
    duration_s: float = 120.0
    fps: int = FPS                      # fixed: a spec may only state it
    n_adults: int = 12
    n_kids: int = 4
    n_cyclists: int = 4
    vehicle_rate_per_min: float = 3.0   # background arrivals per lane
    conflict_probability: float = 0.75  # pedestrians given a dedicated vehicle
    risky_fraction: float = 0.5         # of dedicated vehicles, tightly timed

    def __post_init__(self) -> None:
        for name in ("seed", "fps", "n_adults", "n_kids", "n_cyclists"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.fps != FPS:
            raise InfeasibleSpec(f"frame rate is fixed at {FPS} FPS")
        if self.seed < 0:
            raise InfeasibleSpec(f"seed must be 0 or more, got {self.seed}")
        for name in ("n_adults", "n_kids", "n_cyclists"):
            if not 0 <= getattr(self, name) <= MAX_AGENTS_PER_CATEGORY:
                raise InfeasibleSpec(f"{name} must lie in [0, {MAX_AGENTS_PER_CATEGORY}], got {getattr(self, name)}")
        for name, in_range, rule in (("duration_s", lambda v: v > 0, "be positive"),
                                     ("duration_s", lambda v: v <= MAX_DURATION_S, f"be at most {MAX_DURATION_S}"),
                                     ("vehicle_rate_per_min", lambda v: v >= 0, "be non-negative"),
                                     ("conflict_probability", lambda v: 0 <= v <= 1, "lie in [0, 1]"),
                                     ("risky_fraction", lambda v: 0 <= v <= 1, "lie in [0, 1]")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not in_range(value):
                raise InfeasibleSpec(f"{name} must {rule}, got {value!r}")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioSpec":
        known = {k: v for k, v in doc.items() if k in cls.__dataclass_fields__}
        unknown = set(doc) - set(known)
        if unknown:
            raise ManifestError(f"unknown scenario spec fields: {sorted(unknown)}")
        return cls(**known)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        return read_json(path, "scenario spec", cls.from_dict)


# --- ground truth ---------------------------------------------------------------


class Reaction(IntEnum):
    NONE = 0
    DECELERATE = 1
    ACCELERATE = 2


@dataclass
class AgentTruth:
    category: AgentCategory
    direction: str | None = None            # "ltr"/"rtl" for pedestrians
    awareness: Awareness = Awareness.DID_NOT_NOTICE
    reaction: Reaction = Reaction.NONE
    crossing_times: dict[str, float] = field(default_factory=dict)
    conflict_area: str | None = None         # vehicles: served area


@dataclass
class GroundTruth:
    """Every time of the stream it labels is at FPS; its file states "fps"
    only to say so."""

    agents: dict[str, AgentTruth] = field(default_factory=dict)
    risk: dict[tuple[str, str], RiskLevel] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fps": FPS,
            "agents": {
                agent_id: {
                    "category": int(truth.category),
                    "direction": truth.direction,
                    "awareness": int(truth.awareness),
                    "reaction": int(truth.reaction),
                    "crossing_times": truth.crossing_times,
                    "conflict_area": truth.conflict_area,
                }
                for agent_id, truth in self.agents.items()
            },
            "risk": [
                {"ped_id": ped_id, "area": role, "level": int(level)}
                for (ped_id, role), level in self.risk.items()
            ],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "GroundTruth":
        fps = doc["fps"]
        if isinstance(fps, bool) or not isinstance(fps, int) or fps != FPS:
            raise ValueError(f"fps must be {FPS}, got {fps!r}")
        truth = cls()
        for agent_id, raw in doc["agents"].items():
            truth.agents[agent_id] = AgentTruth(
                category=AgentCategory(int(raw["category"])),
                direction=raw.get("direction"),
                awareness=Awareness(int(raw.get("awareness", 0))),
                reaction=Reaction(int(raw.get("reaction", 0))),
                crossing_times={k: float(v) for k, v in raw.get("crossing_times", {}).items()},
                conflict_area=raw.get("conflict_area"),
            )
        areas = [area.value for area in AREAS]
        for entry in doc.get("risk", []):
            ped_id, area = entry["ped_id"], entry["area"]
            if area not in areas:
                raise ValueError(f"risk area of {ped_id!r} must be one of {areas}, got {area!r}")
            if ped_id not in truth.agents:
                raise ValueError(f"risk entry for {ped_id!r}, which is not an agent")
            truth.risk[(ped_id, area)] = RiskLevel(int(entry["level"]))
        for ped_id, _ in truth.risk:
            if any((ped_id, area) not in truth.risk for area in areas):
                raise ValueError(f"{ped_id!r} is labeled in one area only; label it in each of {areas}")
        return truth

    def save(self, path: str) -> None:
        write_json(path, self.to_dict(), sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "GroundTruth":
        return read_json(path, "ground truth", cls.from_dict)


# --- vehicle paths --------------------------------------------------------------

_LANE_A_SPAWN_Y = 34.0
_LANE_A_EXIT_Y = -8.0
_LANE_B_ARC_RADIUS = 5.0
_LANE_B_ARC_CENTER = (LANE_B_X + _LANE_B_ARC_RADIUS, 8.25)
_LANE_B_SPAWN_X = 30.0
_LANE_B_EXIT_Y = -8.0


def _lane_a_position(distance: float) -> tuple[float, float]:
    """Straight north-to-south path through conflict area 3.1."""
    return (LANE_A_X, _LANE_A_SPAWN_Y - distance)


_LANE_B_LEG1 = _LANE_B_SPAWN_X - _LANE_B_ARC_CENTER[0]
_LANE_B_LEG2 = math.pi / 2 * _LANE_B_ARC_RADIUS


def _lane_b_position(distance: float) -> tuple[float, float]:
    """Westbound approach that arcs south into conflict area 3.2."""
    cx, cy = _LANE_B_ARC_CENTER
    if distance <= _LANE_B_LEG1:
        return (_LANE_B_SPAWN_X - distance, cy + _LANE_B_ARC_RADIUS)
    if distance <= _LANE_B_LEG1 + _LANE_B_LEG2:
        phi = math.pi / 2 + (distance - _LANE_B_LEG1) / _LANE_B_ARC_RADIUS
        return (cx + _LANE_B_ARC_RADIUS * math.cos(phi), cy + _LANE_B_ARC_RADIUS * math.sin(phi))
    return (LANE_B_X, cy - (distance - _LANE_B_LEG1 - _LANE_B_LEG2))


@dataclass(frozen=True)
class _Lane:
    """A vehicle lane: position at a path distance from spawn, the path
    length to the conflict-area entry line (y = 3), and the total length."""

    position: Callable[[float], tuple[float, float]]
    distance_to_enter: float
    total_length: float


# The lane each vehicle class drives; it crosses the class's conflict_area.
_LANES = {
    AgentCategory.VEHICLE_AREA_41: _Lane(
        _lane_a_position, _LANE_A_SPAWN_Y - BAND_Y_HI, _LANE_A_SPAWN_Y - _LANE_A_EXIT_Y
    ),
    AgentCategory.VEHICLE_AREA_42: _Lane(
        _lane_b_position,
        _LANE_B_LEG1 + _LANE_B_LEG2 + (_LANE_B_ARC_CENTER[1] - BAND_Y_HI),
        _LANE_B_LEG1 + _LANE_B_LEG2 + (_LANE_B_ARC_CENTER[1] - _LANE_B_EXIT_Y),
    ),
}


# --- generation -----------------------------------------------------------------


@dataclass
class _PedPlan:
    agent_id: str
    category: AgentCategory
    direction: Direction
    start_t: float
    start_x: float
    lane_y: float
    speed: float
    awareness: Awareness
    reaction: Reaction
    reaction_delay: float = 0.6


@dataclass
class _VehPlan:
    agent_id: str
    category: AgentCategory  # its lane is _LANES[category]
    speed: float
    spawn_t: float


def _plan_pedestrians(spec: ScenarioSpec, rng: np.random.Generator) -> list[_PedPlan]:
    plans: list[_PedPlan] = []
    specs = (
        [(AgentCategory.ADULT, ADULT_CROSSING_S)] * spec.n_adults
        + [(AgentCategory.KID, KID_CROSSING_S)] * spec.n_kids
        + [(AgentCategory.CYCLIST, CYCLIST_CROSSING_S)] * spec.n_cyclists
    )
    walk_span = 34.0  # spawn margin to exit margin
    for idx, (category, target_s) in enumerate(specs):
        duration = target_s * max(0.5, 1.0 + CROSSING_JITTER * rng.standard_normal())
        speed = (CROSSWALK_END_X - CROSSWALK_START_X) / duration
        total_time = walk_span / speed + 2.0
        latest = max(1.0, spec.duration_s - total_time)
        start_t = float(rng.uniform(0.5, latest))
        rtl = rng.uniform() < RTL_FRACTION
        direction = Direction.RIGHT_TO_LEFT if rtl else Direction.LEFT_TO_RIGHT
        start_x = float(rng.uniform(20.0, 21.0)) if rtl else float(rng.uniform(-10.0, -9.0))
        noticed = rng.uniform() < NOTICE_PROBABILITY
        if noticed:
            decel = rng.uniform() < DECELERATE_PROBABILITY
            reaction = Reaction.DECELERATE if decel else Reaction.ACCELERATE
            awareness = Awareness.NOTICED
        else:
            awareness = Awareness.DID_NOT_NOTICE
            reaction = Reaction.NONE
        plans.append(
            _PedPlan(
                agent_id=f"p{idx:03d}",
                category=category,
                direction=direction,
                start_t=start_t,
                start_x=start_x,
                lane_y=float(rng.uniform(0.7, 1.3)),
                speed=speed,
                awareness=awareness,
                reaction=reaction,
                reaction_delay=float(rng.uniform(*REACTION_DELAY_S)),
            )
        )
    return plans


def _planned_occupancy(plan: _PedPlan, area: str, area_map: AreaMap) -> tuple[float, float]:
    """When the no-reaction plan enters and leaves a conflict area: reaches
    the target lines that bound the area (AREA_LINES)."""
    i = closer_further_assignment(plan.direction).index(area)
    start = WorldPoint(plan.start_x, plan.lane_y)
    lines = target_lines(area_map, plan.category, plan.direction)
    enter, leave = (plan.start_t + signed_distance_to_line(start, lines[q]) / plan.speed for q in AREA_LINES[i])
    return enter, leave


def _schedule_vehicles(
    spec: ScenarioSpec, plans: Sequence[_PedPlan], rng: np.random.Generator, area_map: AreaMap
) -> list[_VehPlan]:
    vehicles: list[_VehPlan] = []
    counter = 0

    def add(category: AgentCategory, enter_t: float, speed: float) -> None:
        nonlocal counter
        spawn_t = enter_t - _LANES[category].distance_to_enter / speed
        if spawn_t < 0:
            return
        vehicles.append(_VehPlan(f"v{counter:03d}", category, speed, spawn_t))
        counter += 1

    # dedicated vehicles timed against each pedestrian's no-reaction plan
    for plan in plans:
        if rng.uniform() > spec.conflict_probability:
            continue
        category = AgentCategory.VEHICLE_AREA_41 if rng.uniform() < 0.5 else AgentCategory.VEHICLE_AREA_42
        speed = float(np.clip(rng.normal(VEHICLE_SPEED_MPS, VEHICLE_SPEED_SD), 5.0, 12.0))
        enter, leave = _planned_occupancy(plan, category.conflict_area, area_map)
        transit = (BAND_Y_HI - BAND_Y_LO) / speed
        if rng.uniform() < spec.risky_fraction:
            enter_t = float(rng.uniform(enter - 0.4, leave + 1.2))
        elif rng.uniform() < 0.5:
            enter_t = leave + float(rng.uniform(2.5, 5.5))          # pedestrian first, wide gap
        else:
            enter_t = enter - transit - float(rng.uniform(2.5, 5.5))  # vehicle first, wide gap
        add(category, enter_t, speed)

    # background traffic
    for category in _LANES:
        if spec.vehicle_rate_per_min <= 0:
            continue
        t = float(rng.exponential(60.0 / spec.vehicle_rate_per_min))
        while t < spec.duration_s:
            speed = float(np.clip(rng.normal(VEHICLE_SPEED_MPS, VEHICLE_SPEED_SD), 5.0, 12.0))
            add(category, t, speed)
            t += float(rng.exponential(60.0 / spec.vehicle_rate_per_min))
    return vehicles


def _simulate_vehicle(
    plan: _VehPlan, spec: ScenarioSpec
) -> list[Observation]:
    dt = 1.0 / FPS
    lane = _LANES[plan.category]
    first_frame = max(0, int(math.ceil(plan.spawn_t * FPS)))
    out = []
    frame = first_frame
    while True:
        t = frame * dt
        if t > spec.duration_s:
            break
        distance = (t - plan.spawn_t) * plan.speed
        if distance > lane.total_length:
            break
        x, y = lane.position(distance)
        out.append(Observation(frame, t, plan.agent_id, plan.category, WorldPoint(x, y)))
        frame += 1
    return out


def _vehicle_threat_times(
    vehicles: Sequence[_VehPlan], spec: ScenarioSpec
) -> dict[str, tuple[str, float, float]]:
    """veh_id -> (area, enter_t, leave_t) under the constant-speed plan."""
    out = {}
    for plan in vehicles:
        enter_t = plan.spawn_t + _LANES[plan.category].distance_to_enter / plan.speed
        leave_t = enter_t + (BAND_Y_HI - BAND_Y_LO) / plan.speed
        out[plan.agent_id] = (plan.category.conflict_area, enter_t, leave_t)
    return out


def _simulate_pedestrian(
    plan: _PedPlan,
    spec: ScenarioSpec,
    threats: Mapping[str, tuple[str, float, float]],
    rng: np.random.Generator,
) -> list[Observation]:
    """Frame-by-frame walk with lateral jitter and (for aware pedestrians)
    a reaction when a vehicle is about to occupy the area ahead of them."""
    dt = 1.0 / FPS
    sign = 1.0 if plan.direction is Direction.LEFT_TO_RIGHT else -1.0
    x = plan.start_x
    lateral = 0.0
    speed = plan.speed
    target_speed = plan.speed
    exit_x = 22.3 if sign > 0 else -11.3
    first_frame = max(0, int(math.ceil(plan.start_t * FPS)))
    reacting = False
    react_at = None  # threat noticed, reaction pending after human latency
    release_t = 0.0
    pending_release = 0.0
    out = []
    frame = first_frame
    while True:
        t = frame * dt
        if t > spec.duration_s:
            break
        if (sign > 0 and x > exit_x) or (sign < 0 and x < exit_x):
            break

        if plan.awareness is Awareness.NOTICED and not reacting and react_at is None:
            # reactions happen in the react zone and beyond, never while the
            # pedestrian is still approaching through Area 1
            if sign > 0:
                facing_area = "3.1" if x < CROSSWALK_CENTER_X else "3.2"
                in_react_zone = -7.0 <= x < CROSSWALK_END_X
            else:
                facing_area = "3.2" if x > CROSSWALK_CENTER_X else "3.1"
                in_react_zone = CROSSWALK_START_X < x <= 18.0
            if in_react_zone:
                for area, enter_t, leave_t in threats.values():
                    if area != facing_area:
                        continue
                    if enter_t - 3.0 <= t <= leave_t + 0.5:
                        react_at = t + plan.reaction_delay
                        pending_release = leave_t + 0.3
                        break
        if react_at is not None and not reacting and t >= react_at:
            reacting = True
            # factors chosen well past the 30% labeling cutoff so a smoothed
            # speed profile still registers the evasive action
            if plan.reaction is Reaction.DECELERATE:
                target_speed = 0.2 * plan.speed
            else:
                target_speed = 1.5 * plan.speed
            release_t = max(pending_release, react_at + 0.5)
        if reacting and t >= release_t:
            reacting = False
            react_at = None
            target_speed = plan.speed

        # first-order speed lag plus small forward noise
        speed += (target_speed - speed) * min(1.0, dt / 0.35)
        step_speed = speed * (1.0 + SPEED_NOISE * rng.standard_normal())
        x += sign * max(0.0, step_speed) * dt

        in_further = x > CROSSWALK_CENTER_X if sign > 0 else x < CROSSWALK_CENTER_X
        if plan.category is AgentCategory.KID:
            sigma = KID_LATERAL_SIGMA_FURTHER if in_further else KID_LATERAL_SIGMA
            lateral += -1.8 * lateral * dt + sigma * math.sqrt(dt) * rng.standard_normal()
            lateral = float(np.clip(lateral, -0.65, 0.65))
        y = plan.lane_y + lateral + LATERAL_NOISE_M * rng.standard_normal()
        out.append(Observation(frame, t, plan.agent_id, plan.category, WorldPoint(x, y)))
        frame += 1
    return out


def _crossing_dict(track: Track) -> dict[str, float]:
    """AgentTruth.crossing_times: the crossing time of each target line
    reached, by its ground-truth name (in target_lines' q order)."""
    keys = ("q0", "q1", "q2") if track.category.is_pedestrian else ("enter", "leave")
    return {key: t for key, t in zip(keys, track.crossings) if t is not None}


def label_risk(tracks: Sequence[Track], area_map: AreaMap) -> dict[tuple[str, str], RiskLevel]:
    """Ground-truth risk per (pedestrian, closer/further area) from the
    realized kinematics of the agents' tracks, in their order.

    Risk 0 when no vehicle crosses the area within the interaction horizon;
    Risk 2 when the realized |PET| is under the severe cutoff or the
    pedestrian took an evasive speed change with a vehicle around; else
    Risk 1.
    """
    vehicle_windows: dict[str, list[tuple[str, float, float]]] = {c.conflict_area: [] for c in _LANES}
    for track in tracks:
        if track.category.is_vehicle and None not in track.crossings:
            enter, leave = track.crossings
            vehicle_windows[track.category.conflict_area].append((track.agent_id, enter, leave))

    labels: dict[tuple[str, str], RiskLevel] = {}
    for track in tracks:
        if track.category.is_vehicle or not track.crossings or None in track.crossings:
            continue
        min_pet = {}
        for role, lines, area_id in zip(AREAS, AREA_LINES, closer_further_assignment(track.direction)):
            p_enter, p_leave = (track.crossings[q] for q in lines)
            # realized PET: the pedestrian-first gap, else the vehicle-first
            # one, else 0 when the occupancies overlap
            pets = [
                next((gap for gap in pet(p_enter, p_leave, enter, leave) if gap >= 0.0), 0.0)
                for _, enter, leave in vehicle_windows[area_id]
                if enter <= p_leave + INTERACTION_HORIZON_S and leave >= p_enter - INTERACTION_HORIZON_S
            ]
            min_pet[role] = min(pets, default=None)

        # an evasive action is charged to the area of the smallest PET, the
        # earlier area on a tie
        evasive_role = None
        if _took_evasive_action(track, area_map):
            evasive_role = min((r for r in AREAS if min_pet[r] is not None), key=min_pet.get, default=None)
        for role in AREAS:
            if min_pet[role] is None:
                labels[(track.agent_id, role.value)] = RiskLevel.RISK0
            elif min_pet[role] < LABEL_PET_SEVERE_S or role is evasive_role:
                labels[(track.agent_id, role.value)] = RiskLevel.RISK2
            else:
                labels[(track.agent_id, role.value)] = RiskLevel.RISK1
    return labels


def _took_evasive_action(track: Track, area_map: AreaMap) -> bool:
    """Detect a sustained >= 30% smoothed speed change against the approach
    baseline while the pedestrian was in the react or conflict zones."""
    positions, times = track.positions, track.times
    if len(times) < FPS * 2:
        return False
    speed = np.hypot(*np.diff(positions, axis=0).T) / np.diff(times)
    kernel = np.ones(10) / 10.0
    smooth = np.convolve(speed, kernel, mode="valid")
    # indices of smoothed samples roughly align with trajectory[9:]
    areas = locate_areas(area_map, positions[9:-1, 0], positions[9:-1, 1])
    baseline_n = min(len(smooth), int(1.5 * FPS))
    baseline = float(np.median(smooth[:baseline_n]))
    if baseline <= 0:
        return False
    active = np.array([in_evaluation_zone(a) for a in areas[: len(smooth)]])
    if not np.any(active):
        return False
    lo = float(np.min(smooth[active]))
    hi = float(np.max(smooth[active]))
    return lo < (1.0 - LABEL_SPEED_CHANGE) * baseline or hi > (1.0 + LABEL_SPEED_CHANGE) * baseline


def generate(spec: ScenarioSpec) -> tuple[dict[int, list[Observation]], GroundTruth]:
    """Produce the observation stream and its ground truth.

    Deterministic for a given seed: pedestrians, vehicles and noise each draw
    from their own child generator of the spec seed.
    """
    root = np.random.SeedSequence(spec.seed)
    plan_seed, veh_seed, walk_seed = root.spawn(3)
    plan_rng = np.random.default_rng(plan_seed)
    veh_rng = np.random.default_rng(veh_seed)

    area_map = reference_area_map()
    ped_plans = _plan_pedestrians(spec, plan_rng)
    veh_plans = _schedule_vehicles(spec, ped_plans, veh_rng, area_map)
    threats = _vehicle_threat_times(veh_plans, spec)

    trajectories: dict[str, list[Observation]] = {}
    walk_rngs = walk_seed.spawn(len(ped_plans))
    for plan, child in zip(ped_plans, walk_rngs):
        trajectory = _simulate_pedestrian(plan, spec, threats, np.random.default_rng(child))
        if trajectory:
            trajectories[plan.agent_id] = trajectory
    for plan in veh_plans:
        trajectory = _simulate_vehicle(plan, spec)
        if trajectory:
            trajectories[plan.agent_id] = trajectory

    # each agent's track, built once for the truth and the risk labels:
    # pedestrians in plan order, then vehicles
    tracks = [Track.from_observations(trajectory, area_map) for trajectory in trajectories.values()]
    pedestrians = {plan.agent_id: plan for plan in ped_plans}
    truth = GroundTruth()
    for track in tracks:
        agent = truth.agents[track.agent_id] = AgentTruth(
            category=track.category,
            direction=None if track.direction is Direction.UNKNOWN else track.direction.value,
            crossing_times=_crossing_dict(track),
            conflict_area=track.category.conflict_area,
        )
        plan = pedestrians.get(track.agent_id)
        if plan is not None:
            agent.awareness, agent.reaction = plan.awareness, plan.reaction
    truth.risk = label_risk(tracks, area_map)

    frames: dict[int, list[Observation]] = {}
    for agent_id in sorted(trajectories):
        for obs in trajectories[agent_id]:
            frames.setdefault(obs.frame, []).append(obs)
    return dict(sorted(frames.items())), truth
