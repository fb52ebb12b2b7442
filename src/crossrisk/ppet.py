"""Post-encroachment time, observed and predicted.

The observed measure is the elapsed time between the first road user leaving
a conflict area and the second entering it. P-PET is the same measure of
predicted arrival times: per conflict area, `pet` of the pedestrian's times
to the two lines that bound the area and its vehicle's enter and leave
times, which yields four components per pedestrian: pedestrian-first and
vehicle-first for both the closer and the further conflict area.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence


class ConflictScenario(Enum):
    PEDESTRIAN_FIRST = "pf"
    VEHICLE_FIRST = "vf"


# For each conflict area in crossing order (closer, further): the pedestrian
# target lines (q) at which the pedestrian enters and leaves it.
AREA_LINES = ((0, 1), (1, 2))


def pet(
    t_p_enter: float | None, t_p_leave: float | None, t_v_enter: float | None, t_v_leave: float | None
) -> tuple[float | None, float | None]:
    """PET of one conflict area for both orderings.

    Pedestrian-first is vehicle entry minus pedestrian exit; vehicle-first is
    pedestrian entry minus vehicle exit. A component with either of its two
    times None is None; a known time must be finite.
    """
    for v in (t_p_enter, t_p_leave, t_v_enter, t_v_leave):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"event times must be finite, got {v}")
    pf = None if t_v_enter is None or t_p_leave is None else t_v_enter - t_p_leave
    vf = None if t_p_enter is None or t_v_leave is None else t_p_enter - t_v_leave
    return pf, vf


class PPetVector(NamedTuple):
    """The four predicted post-encroachment times of one pedestrian frame.

    Components with missing inputs stay None; they must never be treated as
    zero by downstream threshold tests.
    """

    c_pf: float | None = None
    c_vf: float | None = None
    f_pf: float | None = None
    f_vf: float | None = None

    def area(self, i: int) -> tuple[float | None, float | None]:
        """The (pedestrian-first, vehicle-first) components of conflict area i."""
        return self[2 * i], self[2 * i + 1]


def ppet(
    ped_times: Sequence[float | None], vehicle_times: Sequence[tuple[float | None, float | None]]
) -> PPetVector:
    """P-PET of one pedestrian: per conflict area, `pet` of the pedestrian's
    seconds to that area's AREA_LINES (ped_times holds q0-q2) and its
    vehicle's (enter, leave) seconds (vehicle_times holds one pair per area).
    None marks an unavailable estimate. A known time that is not finite or
    is negative, or known pedestrian times out of order, raise ValueError.
    """
    for value in (*ped_times, *(t for pair in vehicle_times for t in pair)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"arrival estimates must be finite and >= 0, got {value}")
    known = [t for t in ped_times if t is not None]
    if known != sorted(known):
        raise ValueError(f"pedestrian estimates must be ordered, got {list(ped_times)}")
    return PPetVector._make(
        component
        for (enter, leave), (v_enter, v_leave) in zip(AREA_LINES, vehicle_times)
        for component in pet(ped_times[enter], ped_times[leave], v_enter, v_leave)
    )
