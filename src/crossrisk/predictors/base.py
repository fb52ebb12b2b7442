"""Shared types for arrival-time prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import TargetLine

# Near-tangential approaches produce huge finite times; cap well beyond any
# plausible conflict horizon so they cannot distort downstream differences.
ARRIVAL_TIME_CAP_S = 60.0


@dataclass(frozen=True)
class TargetLocation:
    """A target line index q (the q of stream.target_lines) bound to its
    concrete world line."""

    q: int
    line: TargetLine


@dataclass(frozen=True)
class ArrivalPrediction:
    """Seconds until the agent reaches a target location."""

    seconds: float
    produced_by: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.seconds) or self.seconds < 0.0:
            raise ValueError(f"arrival time must be finite and >= 0, got {self.seconds}")
