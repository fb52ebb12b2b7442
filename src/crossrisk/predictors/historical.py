"""Closed-form constant-velocity arrival-time baseline.

Works off a sliding window alone: displacement direction, average projected
speed, then distance-to-line over the speed component along the line's
inward normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NoApproach, NonPositiveVelocity, ZeroDisplacement
from ..geometry import TargetLine, signed_distance_to_line
from ..stream import SlidingWindowTrajectory
from .base import ARRIVAL_TIME_CAP_S, ArrivalPrediction

VELOCITY_FLOOR = 1e-6  # m/s; below this the agent is not approaching


def direction_vector(window: SlidingWindowTrajectory) -> tuple[np.ndarray, float, float]:
    """Displacement vector end minus start, its norm, and its angle.

    Raises ZeroDisplacement when the window effectively did not move.
    """
    pos = window.positions
    d = pos[-1] - pos[0]
    norm = float(math.hypot(d[0], d[1]))
    if norm < 1e-9:
        raise ZeroDisplacement(f"agent {window.agent_id} moved {norm} m over the window")
    theta = math.atan2(d[1], d[0])
    return d, norm, theta


def average_velocity(window: SlidingWindowTrajectory, d: np.ndarray) -> float:
    """Mean of per-step velocities projected onto the displacement direction.

    Per-step velocities use forward differences of consecutive points.
    """
    norm = math.hypot(float(d[0]), float(d[1]))
    if norm <= 0.0:
        raise ZeroDisplacement("direction vector has zero norm")
    unit = np.asarray(d, dtype=float) / norm
    dt = np.diff(window.times)
    if np.any(dt <= 0):
        raise ValueError("window timestamps must be strictly increasing")
    steps = np.diff(window.positions, axis=0) / dt[:, None]
    v_avg = float(np.mean(steps @ unit))
    if v_avg <= VELOCITY_FLOOR:
        raise NonPositiveVelocity(
            f"agent {window.agent_id}: projected speed {v_avg} m/s is not positive"
        )
    return v_avg


def arrival_time(window: SlidingWindowTrajectory, line: TargetLine) -> float:
    """Seconds until the window's end point reaches the target line.

    The speed toward the line is the projected average speed times the cosine
    between the displacement direction and the line's inward normal; the
    result is capped at ARRIVAL_TIME_CAP_S.
    """
    d, _, theta = direction_vector(window)
    v_avg = average_velocity(window, d)
    dist = signed_distance_to_line(window.end_position, line)
    if dist < 0.0:
        raise NoApproach(f"agent {window.agent_id} is {-dist} m past the line")
    phi = math.atan2(line.normal[1], line.normal[0])
    closing = v_avg * math.cos(theta - phi)
    if closing <= VELOCITY_FLOOR:
        raise NoApproach(
            f"agent {window.agent_id}: closing speed {closing} m/s toward the line"
        )
    return min(max(dist / closing, 0.0), ARRIVAL_TIME_CAP_S)


@dataclass(frozen=True)
class HistoricalAveragePredictor:
    """Stateless predictor wrapping the constant-velocity estimate."""

    name: str = "historical_average"

    def predict(self, window: SlidingWindowTrajectory, line: TargetLine) -> ArrivalPrediction:
        return ArrivalPrediction(arrival_time(window, line), self.name)
