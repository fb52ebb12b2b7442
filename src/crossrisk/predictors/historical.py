"""Closed-form constant-velocity arrival-time baseline.

Works off a sliding window alone: displacement direction, average projected
speed, then distance-to-line over the speed component along the line's
inward normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..errors import NoApproach, NonPositiveVelocity, PredictionError, ZeroDisplacement
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


def stacked_arrival_times(
    requests: Sequence[tuple[SlidingWindowTrajectory, TargetLine]],
) -> list[float | PredictionError]:
    """Seconds until each request's window end point reaches its target line,
    or the PredictionError that request fails with.

    The speed toward the line is the projected average speed times the cosine
    between the displacement direction and the line's inward normal; the
    result is capped at ARRIVAL_TIME_CAP_S. A window's displacement and
    average speed are computed once, in one pass over all distinct windows
    stacked; each window fails as direction_vector and average_velocity would
    (ZeroDisplacement, NonPositiveVelocity) and each line as a lone call
    would (NoApproach). Every value has the bits of those one-window
    functions: the products are row-wise matmuls (an elementwise or einsum
    dot product can differ in the last bit) and the norms math.hypot.
    """
    windows = list({id(w): w for w, _ in requests}.values())
    motion = dict(zip(map(id, windows), _stacked_motion(windows)))
    out: list[float | PredictionError] = []
    for window, line in requests:
        m = motion[id(window)]
        if not isinstance(m, PredictionError):
            m = _arrival_at(window, *m, line)
        out.append(m)
    return out


def _stacked_motion(
    windows: Sequence[SlidingWindowTrajectory],
) -> list[tuple[float, float] | PredictionError]:
    """(theta, v_avg) of each window, or its failure."""
    positions = np.stack([w.positions for w in windows])
    d = positions[:, -1] - positions[:, 0]
    pairs = d.tolist()
    norm = [math.hypot(x, y) for x, y in pairs]
    out: list = [
        ZeroDisplacement(f"agent {w.agent_id} moved {n} m over the window") if n < 1e-9 else None
        for w, n in zip(windows, norm)
    ]
    rows = [i for i, o in enumerate(out) if o is None]
    if not rows:
        return out
    # zero-norm rows are left out before dividing by the norm
    unit = d[rows] / np.array([norm[i] for i in rows])[:, None]
    dt = np.diff(np.stack([windows[i].times for i in rows]), axis=1)
    if np.any(dt <= 0):
        raise ValueError("window timestamps must be strictly increasing")
    steps = np.diff(positions[rows], axis=1) / dt[:, :, None]
    v_avg = np.mean((steps @ unit[:, :, None])[..., 0], axis=1).tolist()
    for i, v in zip(rows, v_avg):
        if v <= VELOCITY_FLOOR:
            out[i] = NonPositiveVelocity(
                f"agent {windows[i].agent_id}: projected speed {v} m/s is not positive"
            )
        else:
            dx, dy = pairs[i]
            out[i] = (math.atan2(dy, dx), v)
    return out


def _arrival_at(
    window: SlidingWindowTrajectory, theta: float, v_avg: float, line: TargetLine
) -> float | NoApproach:
    dist = signed_distance_to_line(window.end_position, line)
    if dist < 0.0:
        return NoApproach(f"agent {window.agent_id} is {-dist} m past the line")
    phi = math.atan2(line.normal[1], line.normal[0])
    closing = v_avg * math.cos(theta - phi)
    if closing <= VELOCITY_FLOOR:
        return NoApproach(f"agent {window.agent_id}: closing speed {closing} m/s toward the line")
    return min(max(dist / closing, 0.0), ARRIVAL_TIME_CAP_S)


def arrival_time(window: SlidingWindowTrajectory, line: TargetLine) -> float:
    """Seconds until the window's end point reaches the target line: the
    one-request case of stacked_arrival_times, raising its failure."""
    (seconds,) = stacked_arrival_times([(window, line)])
    if isinstance(seconds, PredictionError):
        raise seconds
    return seconds


@dataclass(frozen=True)
class HistoricalAveragePredictor:
    """Stateless predictor wrapping the constant-velocity estimate."""

    name: ClassVar[str] = "historical_average"

    def predict(self, window: SlidingWindowTrajectory, line: TargetLine) -> ArrivalPrediction:
        return ArrivalPrediction(arrival_time(window, line), self.name)
