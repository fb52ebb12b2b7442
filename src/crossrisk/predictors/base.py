"""Shared types for arrival-time prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..geometry import TargetLine
from ..stream import AgentCategory

# Near-tangential approaches produce huge finite times; cap well beyond any
# plausible conflict horizon so they cannot distort downstream differences.
ARRIVAL_TIME_CAP_S = 60.0


class AgentKind(Enum):
    PEDESTRIAN = "pedestrian"
    VEHICLE = "vehicle"


# Valid target-location indices per agent kind: the q of stream.target_lines.
_VALID_Q = {
    AgentKind.PEDESTRIAN: range(AgentCategory.ADULT.target_count),
    AgentKind.VEHICLE: range(AgentCategory.VEHICLE_AREA_41.target_count),
}


@dataclass(frozen=True)
class TargetLocation:
    """A target line index q bound to its concrete world line."""

    kind: AgentKind
    q: int
    line: TargetLine

    def __post_init__(self) -> None:
        if self.q not in _VALID_Q[self.kind]:
            raise ValueError(f"q={self.q} invalid for {self.kind.value}")


@dataclass(frozen=True)
class ArrivalPrediction:
    """Seconds until the agent reaches a target location."""

    seconds: float
    produced_by: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.seconds) or self.seconds < 0.0:
            raise ValueError(f"arrival time must be finite and >= 0, got {self.seconds}")
