"""Shared types for arrival-time prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..geometry import TargetLine

# Near-tangential approaches produce huge finite times; cap well beyond any
# plausible conflict horizon so they cannot distort downstream differences.
ARRIVAL_TIME_CAP_S = 60.0


class AgentKind(Enum):
    PEDESTRIAN = "pedestrian"
    VEHICLE = "vehicle"


# Valid target-location indices per agent kind: pedestrians pass the closer
# entry (0), the center line (1) and the further exit (2); vehicles enter (0)
# and leave (1) their conflict area.
_VALID_Q = {AgentKind.PEDESTRIAN: (0, 1, 2), AgentKind.VEHICLE: (0, 1)}


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
