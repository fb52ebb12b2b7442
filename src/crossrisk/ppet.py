"""Post-encroachment time, observed and predicted.

The observed measure is the elapsed time between the first road user leaving
a conflict area and the second entering it. The predicted variant replaces
event times with per-agent arrival-time predictions, which yields four
components per pedestrian: pedestrian-first and vehicle-first for both the
closer and the further conflict area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ConflictScenario(Enum):
    PEDESTRIAN_FIRST = "pf"
    VEHICLE_FIRST = "vf"


def pet(
    t_p_enter: float, t_p_leave: float, t_v_enter: float, t_v_leave: float
) -> tuple[float, float]:
    """Observed PET for both orderings of one conflict area.

    Pedestrian-first is vehicle entry minus pedestrian exit; vehicle-first is
    pedestrian entry minus vehicle exit.
    """
    for v in (t_p_enter, t_p_leave, t_v_enter, t_v_leave):
        if not math.isfinite(v):
            raise ValueError(f"event times must be finite, got {v}")
    return (t_v_enter - t_p_leave, t_p_enter - t_v_leave)


@dataclass(frozen=True)
class ArrivalEstimateSet:
    """Predicted seconds-to-target for one pedestrian and its conflict vehicles.

    Pedestrian fields are indexed by target location (enter closer area,
    cross center line, leave further area). Vehicle fields are enter/leave
    estimates for the vehicles serving the closer and further areas. A None
    field means that estimate is unavailable this frame (no vehicle, not
    enough history, or the line is already behind the agent).
    """

    ped_q0: float | None = None
    ped_q1: float | None = None
    ped_q2: float | None = None
    veh_closer_enter: float | None = None
    veh_closer_leave: float | None = None
    veh_further_enter: float | None = None
    veh_further_leave: float | None = None

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        q = [self.ped_q0, self.ped_q1, self.ped_q2]
        if all(v is not None for v in q) and not (q[0] <= q[1] <= q[2]):
            raise ValueError(f"pedestrian estimates must be ordered, got {q}")


def _diff(a: float | None, b: float | None) -> float | None:
    if a is None or b is None:
        return None
    return a - b


@dataclass(frozen=True)
class PPetVector:
    """The four predicted post-encroachment times of one pedestrian frame.

    Components with missing inputs stay None; they must never be treated as
    zero by downstream threshold tests.
    """

    c_pf: float | None = None
    c_vf: float | None = None
    f_pf: float | None = None
    f_vf: float | None = None

    def component(self, area_role: str, scenario: ConflictScenario) -> float | None:
        key = ("c" if area_role == "closer" else "f") + "_" + scenario.value
        return getattr(self, key)

    @property
    def empty(self) -> bool:
        return self.c_pf is None and self.c_vf is None and self.f_pf is None and self.f_vf is None


def ppet(est: ArrivalEstimateSet) -> PPetVector:
    """Predicted post-encroachment times from one arrival-estimate set.

    Closer-area pedestrian exit is the center-line estimate (ped_q1); the
    further-area exit is ped_q2. Each component is the plain difference of
    the corresponding predicted arrival times.
    """
    return PPetVector(
        c_pf=_diff(est.veh_closer_enter, est.ped_q1),
        c_vf=_diff(est.ped_q0, est.veh_closer_leave),
        f_pf=_diff(est.veh_further_enter, est.ped_q2),
        f_vf=_diff(est.ped_q1, est.veh_further_leave),
    )
