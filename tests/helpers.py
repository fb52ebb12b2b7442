"""Builders for synthetic calibration episodes with planted threshold rules,
and for agent tracks with explicit targets."""

from __future__ import annotations

import dataclasses

import numpy as np

from crossrisk.calibration import Episode, GridSpec, IntervalGrid, RoleGrid
from crossrisk.ppet import PPetVector
from crossrisk.risk import AreaRole, RiskLevel
from crossrisk.stream import AgentCategory, Track
from crossrisk.synthgen import reference_area_map


def track_with_targets(observations, targets) -> Track:
    """The Track of one agent's observations, with the given (q, line)
    targets in place of its own."""
    track = Track.from_observations(observations, reference_area_map())
    return dataclasses.replace(track, targets=tuple(targets))

# The planted rule: an episode is severe exactly when at least three frames
# carry a closer-area pedestrian-first value inside [-1.0, 0.0].
PLANTED_ALPHA = -1.0
PLANTED_BETA = 0.0
PLANTED_MIN_HITS = 3

# in-band values forced to span the interval so any narrower candidate
# interval loses one of them
_SPREAD = (-0.9, -0.5, -0.1)
_OUT_LOW = (-3.8, -1.4)
_OUT_HIGH = (0.4, 2.8)


def _out_of_band(rng) -> float:
    if rng.uniform() < 0.5:
        return float(rng.uniform(*_OUT_LOW))
    return float(rng.uniform(*_OUT_HIGH))


def planted_episode(rng, ped_id: str, positive: bool, n_frames: int = 40) -> Episode:
    if positive:
        hits = int(rng.integers(PLANTED_MIN_HITS, 7))
        forced = list(_SPREAD) if hits == PLANTED_MIN_HITS else []
        extra = [float(rng.uniform(PLANTED_ALPHA + 0.03, PLANTED_BETA - 0.03)) for _ in range(hits - len(forced))]
        in_band = forced + extra
    else:
        hits = int(rng.integers(0, PLANTED_MIN_HITS))
        in_band = [float(rng.uniform(PLANTED_ALPHA + 0.03, PLANTED_BETA - 0.03)) for _ in range(hits)]
    values = in_band + [_out_of_band(rng) for _ in range(n_frames - len(in_band))]
    rng.shuffle(values)
    trace = tuple(PPetVector(c_pf=v, c_vf=float(rng.uniform(-3.8, -2.6))) for v in values)
    labels = {
        AreaRole.CLOSER: RiskLevel.RISK2 if positive else RiskLevel.RISK1,
        AreaRole.FURTHER: RiskLevel.RISK1,
    }
    return Episode(ped_id, AgentCategory.ADULT, trace, labels)


def planted_episodes(n: int, seed: int = 0) -> list[Episode]:
    rng = np.random.default_rng(seed)
    return [planted_episode(rng, f"p{k:03d}", positive=(k % 2 == 0)) for k in range(n)]


def planted_grid(step: float = 0.25) -> GridSpec:
    """PF axes bracketing the planted interval; VF and further axes are a
    single never-matching point so the search focuses on the planted rule."""
    degenerate = IntervalGrid(9.0, 9.0, 1.0, 9.0, 9.0, 1.0)
    return GridSpec({
        AreaRole.CLOSER: RoleGrid(IntervalGrid(-1.5, -0.5, step, -0.5, 0.5, step), degenerate, (1, 2, 3, 4)),
        AreaRole.FURTHER: RoleGrid(degenerate, degenerate, (1, 2)),
    })
