"""Streaming risk evaluation: threshold tests on predicted post-encroachment
times, per-area counters, and severe-risk scenario emission.

step_evaluate mutates one pedestrian's counters and must be called
frame-serialized per pedestrian; distinct pedestrians share only the
immutable config and can be evaluated concurrently within a frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingThreshold
from .files import read_json, write_json
from .geometry import WorldPoint
from .ppet import ConflictScenario, PPetVector
from .stream import AgentCategory, PedestrianState


class AreaRole(Enum):
    CLOSER = "closer"
    FURTHER = "further"
    MERGED = "merged"


class ThresholdMode(Enum):
    PER_AREA = "per_area"
    MERGED_AREA = "merged_area"


# The two conflict areas a pedestrian crosses, in the order they are judged.
AREAS = (AreaRole.CLOSER, AreaRole.FURTHER)

# Per threshold mode: the roles a category holds, each with its intervals
# and a counter limit, and the conflict areas whose in-interval frames each
# role counts. A role's outcome is every one of its areas' outcome.
MODE_ROLES: Mapping[ThresholdMode, Mapping[AreaRole, tuple[AreaRole, ...]]] = {
    ThresholdMode.PER_AREA: {area: (area,) for area in AREAS},
    ThresholdMode.MERGED_AREA: {AreaRole.MERGED: AREAS},
}


class RiskLevel(IntEnum):
    RISK0 = 0
    RISK1 = 1
    RISK2 = 2


@dataclass(frozen=True)
class ThresholdInterval:
    """Closed interval [alpha, beta] in seconds."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("interval bounds must be finite")
        if self.alpha > self.beta:
            raise ValueError(f"alpha {self.alpha} must be <= beta {self.beta}")

    def contains(self, value: float) -> bool:
        return self.alpha <= value <= self.beta


@dataclass(frozen=True)
class RoleThresholds:
    """One role's pedestrian-first and vehicle-first intervals and the
    counter limit its in-interval frames must strictly exceed."""

    pf: ThresholdInterval
    vf: ThresholdInterval
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"counter limits must be >= 1, got {self.limit}")


@dataclass(frozen=True)
class CategoryThresholds:
    """One pedestrian category's threshold record for each role of its mode."""

    mode: ThresholdMode
    roles: Mapping[AreaRole, RoleThresholds]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", dict(self.roles))
        expected = MODE_ROLES[self.mode]
        if set(self.roles) != set(expected):
            raise ValueError(
                f"{self.mode.value} thresholds need roles {[r.value for r in expected]}, "
                f"got {[r.value for r in self.roles]}"
            )


@dataclass(frozen=True)
class RiskThresholdConfig:
    """Per-category thresholds; categories may mix per-area and merged modes."""

    categories: Mapping[AgentCategory, CategoryThresholds]

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", dict(self.categories))

    def for_category(self, category: AgentCategory) -> CategoryThresholds:
        try:
            return self.categories[category]
        except KeyError:
            raise MissingThreshold(f"no thresholds for category {int(category)}") from None

    @classmethod
    def default(cls) -> "RiskThresholdConfig":
        """Shipped defaults: per-area intervals for adults and cyclists, a
        single merged range for kids (better recall on erratic movers)."""
        per_area, merged = ThresholdMode.PER_AREA, ThresholdMode.MERGED_AREA
        closer, further = AreaRole.CLOSER, AreaRole.FURTHER
        return cls(
            {
                AgentCategory.ADULT: CategoryThresholds(per_area, {
                    closer: RoleThresholds(ThresholdInterval(-0.7, 0.1), ThresholdInterval(0.1, 1.1), 3),
                    further: RoleThresholds(ThresholdInterval(-2.5, -1.5), ThresholdInterval(0.9, 2.4), 3),
                }),
                AgentCategory.KID: CategoryThresholds(merged, {
                    AreaRole.MERGED: RoleThresholds(ThresholdInterval(-3.3, -3.1), ThresholdInterval(1.0, 1.5), 3),
                }),
                AgentCategory.CYCLIST: CategoryThresholds(per_area, {
                    closer: RoleThresholds(ThresholdInterval(-3.0, -2.6), ThresholdInterval(1.4, 2.0), 5),
                    further: RoleThresholds(ThresholdInterval(-0.6, 0.2), ThresholdInterval(0.6, 1.6), 3),
                }),
            }
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {"categories": {}}
        for category, spec in sorted(self.categories.items(), key=lambda kv: int(kv[0])):
            doc["categories"][str(int(category))] = {
                "mode": spec.mode.value,
                "intervals": {
                    role.value: {"pf": [r.pf.alpha, r.pf.beta], "vf": [r.vf.alpha, r.vf.beta]}
                    for role, r in spec.roles.items()
                },
                "counters": {role.value: r.limit for role, r in spec.roles.items()},
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RiskThresholdConfig":
        categories = {}
        for key, raw in doc["categories"].items():
            intervals, counters = raw["intervals"], raw["counters"]
            if set(counters) != set(intervals):
                raise ValueError(f"category {key}: counters name roles {sorted(counters)}, "
                                 f"intervals {sorted(intervals)}")
            roles = {}
            for name, bounds in intervals.items():
                pf, vf = (ThresholdInterval(float(bounds[s.value][0]), float(bounds[s.value][1]))
                          for s in ConflictScenario)
                roles[AreaRole(name)] = RoleThresholds(pf, vf, int(counters[name]))
            categories[AgentCategory(int(key))] = CategoryThresholds(ThresholdMode(raw["mode"]), roles)
        return cls(categories)

    def save(self, path: str) -> None:
        write_json(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str) -> "RiskThresholdConfig":
        return read_json(path, "threshold config", cls.from_dict)


@dataclass(frozen=True)
class RiskScenario:
    """Snapshot emitted when a pedestrian is flagged severe (Risk 2)."""

    ped_id: str
    ped_position: WorldPoint
    veh_id: str
    veh_position: WorldPoint
    t: float
    area: AreaRole

    def to_dict(self) -> dict:
        return {
            "ped_id": self.ped_id,
            "ped_position": [self.ped_position.x, self.ped_position.y],
            "veh_id": self.veh_id,
            "veh_position": [self.veh_position.x, self.veh_position.y],
            "t": self.t,
            "area": self.area.value,
        }


def select_conflict_vehicle(
    ped_position: WorldPoint, candidates: Iterable[tuple[str, WorldPoint]]
) -> str | None:
    """Nearest candidate vehicle by Euclidean world distance, or None.

    Ties resolve to the earliest candidate in the input order.
    """
    best_id: str | None = None
    best_dist = math.inf
    for veh_id, position in candidates:
        dist = ped_position.distance_to(position)
        if dist < best_dist:
            best_dist = dist
            best_id = veh_id
    return best_id


class DecisionKind(Enum):
    COUNTER_INCREMENTED = "counter_incremented"
    RISK2_FLAGGED = "risk2_flagged"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    area: AreaRole | None = None
    scenario: RiskScenario | None = None


# Risk is evaluated only while the pedestrian is in the react or conflict
# zones; the approach zone is deliberately not assessed.
_EVAL_AREA_PREFIXES = ("2.", "3.")


def in_evaluation_zone(area: str | None) -> bool:
    """True for the areas where a pedestrian's risk is evaluated (2.x, 3.x)."""
    return area is not None and area.startswith(_EVAL_AREA_PREFIXES)


def _role_hit(vector: PPetVector, area: AreaRole, thresholds: RoleThresholds) -> bool:
    """True when either available component of the area falls in the role's interval."""
    pf, vf = vector.area(AREAS.index(area))
    if pf is not None and thresholds.pf.contains(pf):
        return True
    return vf is not None and thresholds.vf.contains(vf)


def step_evaluate(
    state: PedestrianState,
    vector: PPetVector,
    config: RiskThresholdConfig,
    t: float,
    ped_position: WorldPoint,
    conflict_vehicles: Mapping[AreaRole, tuple[str, WorldPoint]],
) -> list[Decision]:
    """Advance one pedestrian's risk counters with this frame's P-PET vector.

    Each conflict area contributes at most one increment per frame, to the
    counter of the role that judges it, even when both of its scenario
    components are in range. The increment that brings a role's counter to
    limit + 1 (it grows by one and is cleared with the episode) flags Risk 2,
    once per role and episode, and emits the scenario snapshot of its area,
    with that area's conflict vehicle (id, position), or none.
    """
    thresholds = config.for_category(state.category)
    if not in_evaluation_zone(state.current_area):
        return []

    decisions: list[Decision] = []
    for role, areas in MODE_ROLES[thresholds.mode].items():
        role_thresholds = thresholds.roles[role]
        for area in areas:
            if not _role_hit(vector, area, role_thresholds):
                continue
            count = state.risk_counters.get(role.value, 0) + 1
            state.risk_counters[role.value] = count
            decisions.append(Decision(DecisionKind.COUNTER_INCREMENTED, area))
            if count == role_thresholds.limit + 1:
                veh_id, veh_position = conflict_vehicles.get(area, ("", ped_position))
                decisions.append(
                    Decision(
                        DecisionKind.RISK2_FLAGGED,
                        area,
                        RiskScenario(
                            ped_id=state.agent_id,
                            ped_position=ped_position,
                            veh_id=veh_id,
                            veh_position=veh_position,
                            t=t,
                            area=area,
                        ),
                    )
                )
    return decisions


def component_values(
    trace: Sequence[PPetVector], role: AreaRole
) -> tuple[np.ndarray, np.ndarray]:
    """One area's pedestrian-first and vehicle-first components per frame of
    a trace; NaN marks an unavailable component and never hits an interval
    (a float array holds None as NaN)."""
    area = AREAS.index(role)
    pf, vf = np.array([vec.area(area) for vec in trace], dtype=float).reshape(len(trace), 2).T
    return pf, vf


def interval_bounds(intervals: Sequence[ThresholdInterval]) -> np.ndarray:
    """(n, 2) array of the intervals' [alpha, beta] rows."""
    return np.array([(i.alpha, i.beta) for i in intervals], dtype=float)


def hit_count(
    pf_values: np.ndarray, vf_values: np.ndarray,
    pf_bounds: np.ndarray, vf_bounds: np.ndarray,
) -> np.ndarray:
    """Frames where either component lies in its closed interval, for each
    pair of PF and VF bounds rows (see interval_bounds): an (n_pf, n_vf)
    array of |PF hits| + |VF hits| - |both|, the overlap one mask product."""
    with np.errstate(invalid="ignore"):
        pf_in = (pf_values >= pf_bounds[:, :1]) & (pf_values <= pf_bounds[:, 1:])
        vf_in = (vf_values >= vf_bounds[:, :1]) & (vf_values <= vf_bounds[:, 1:])
    both = pf_in.astype(float) @ vf_in.T.astype(float)
    return pf_in.sum(axis=1)[:, None] + vf_in.sum(axis=1)[None, :] - both.astype(np.int64)


def classify_offline(
    trace: Sequence[PPetVector],
    category: AgentCategory,
    config: RiskThresholdConfig,
) -> dict[AreaRole, RiskLevel]:
    """Episode-level classification from a complete P-PET trace.

    Batch mirror of the streaming counters: a role is Risk 2 exactly when
    its areas' in-interval frames, summed, strictly exceed its counter
    limit, and each of its areas takes that level. An empty trace is Risk 1
    (never flagged).
    """
    thresholds = config.for_category(category)
    levels = {}
    for role, areas in MODE_ROLES[thresholds.mode].items():
        role_thresholds = thresholds.roles[role]
        pf_bounds, vf_bounds = interval_bounds([role_thresholds.pf]), interval_bounds([role_thresholds.vf])
        count = sum(int(hit_count(*component_values(trace, area), pf_bounds, vf_bounds)[0, 0]) for area in areas)
        level = RiskLevel.RISK2 if count > role_thresholds.limit else RiskLevel.RISK1
        levels.update(dict.fromkeys(areas, level))
    return levels
