"""Shared fixtures and window builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from crossrisk.geometry import TargetLine, WorldPoint
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory
from crossrisk.synthgen import reference_area_map, reference_tile_grid

FPS = 30.0


@pytest.fixture(scope="session")
def area_map():
    return reference_area_map()


@pytest.fixture(scope="session")
def tile_grid():
    return reference_tile_grid()


def make_window(
    positions,
    t0: float = 0.0,
    fps: float = FPS,
    agent_id: str = "a0",
    category: AgentCategory = AgentCategory.ADULT,
    first_frame: int = 0,
) -> SlidingWindowTrajectory:
    """Window from an explicit (30, 2) position array, sampled at fps from t0."""
    times = np.array([t0 + i / fps for i in range(WINDOW_SIZE)])
    return SlidingWindowTrajectory(agent_id, category, first_frame, times, np.asarray(positions, dtype=float))


def constant_velocity_window(
    start: tuple[float, float],
    velocity: tuple[float, float],
    t0: float = 0.0,
    fps: float = FPS,
    **kwargs,
) -> SlidingWindowTrajectory:
    steps = np.arange(WINDOW_SIZE) / fps
    xs = start[0] + velocity[0] * steps
    ys = start[1] + velocity[1] * steps
    return make_window(np.column_stack([xs, ys]), t0=t0, fps=fps, **kwargs)


def vertical_line(x: float, nx: float = 1.0) -> TargetLine:
    return TargetLine(WorldPoint(x, -5.0), WorldPoint(x, 5.0), (nx, 0.0))
