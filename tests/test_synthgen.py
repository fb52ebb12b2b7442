import math

import numpy as np
import pytest

from crossrisk.errors import InfeasibleSpec, ManifestError
from crossrisk.geometry import locate_area
from crossrisk.ppet import pet, ppet
from crossrisk.predictors.dataset import Awareness
from crossrisk.risk import RiskLevel
from crossrisk.stream import AgentCategory, Direction, agent_tracks, closer_further_assignment, write_stream_csv
from crossrisk.synthgen import (
    LABEL_PET_SEVERE_S,
    GroundTruth,
    Reaction,
    ScenarioSpec,
    generate,
    label_risk,
    reference_area_map,
)


def stream_bytes(frames) -> bytes:
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_stream_csv(path, [frames[k] for k in sorted(frames)])
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = ScenarioSpec(seed=12, duration_s=40, n_adults=4, n_kids=2, n_cyclists=2)
        a, truth_a = generate(spec)
        b, truth_b = generate(spec)
        assert stream_bytes(a) == stream_bytes(b)
        assert truth_a.to_dict() == truth_b.to_dict()

    def test_different_seeds_differ(self):
        base = dict(duration_s=40, n_adults=4, n_kids=2, n_cyclists=2)
        a, _ = generate(ScenarioSpec(seed=1, **base))
        b, _ = generate(ScenarioSpec(seed=2, **base))
        assert stream_bytes(a) != stream_bytes(b)


    def test_each_line_crossing_is_computed_once(self, monkeypatch):
        """The truth and the risk labels share one first-crossing search per
        agent and target line: three per pedestrian of known direction, two
        per vehicle."""
        import crossrisk.stream as stream_module

        calls = []
        search = stream_module.first_crossing_time

        def counting(positions, times, line):
            calls.append(line)
            return search(positions, times, line)

        monkeypatch.setattr(stream_module, "first_crossing_time", counting)
        _, truth = generate(ScenarioSpec(seed=12, duration_s=40, n_adults=4, n_kids=2, n_cyclists=2))
        expected = sum(
            agent.category.target_count
            for agent in truth.agents.values()
            if agent.category.is_vehicle or agent.direction is not None
        )
        assert expected > 0 and len(calls) == expected


class TestSpecValidation:
    def test_fps_fixed(self):
        with pytest.raises(InfeasibleSpec):
            ScenarioSpec(fps=25)

    def test_negative_rate_rejected(self):
        with pytest.raises(InfeasibleSpec):
            ScenarioSpec(vehicle_rate_per_min=-1.0)

    def test_zero_speed_category_rejected(self):
        """Crossing durations are generator constants: a spec cannot set one."""
        with pytest.raises(ManifestError, match=r"unknown scenario spec fields: \['adult_crossing_s'\]"):
            ScenarioSpec.from_dict({"adult_crossing_s": 0.0})


class TestLabels:
    def test_zero_vehicles_all_risk_0(self):
        spec = ScenarioSpec(
            seed=3, duration_s=60, n_adults=6, n_kids=2, n_cyclists=2,
            vehicle_rate_per_min=0.0, conflict_probability=0.0,
        )
        _, truth = generate(spec)
        assert truth.risk  # labels exist
        assert all(level is RiskLevel.RISK0 for level in truth.risk.values())

    def test_forced_hard_stops_label_risk_2(self):
        """Pedestrians that noticed a tightly timed vehicle and braked hard
        are labeled Risk 2."""
        spec = ScenarioSpec(
            seed=5, duration_s=240, n_adults=40, n_kids=0, n_cyclists=0,
            vehicle_rate_per_min=0.0, conflict_probability=1.0, risky_fraction=1.0,
        )
        _, truth = generate(spec)
        braked = {
            agent_id for agent_id, agent in truth.agents.items()
            if agent.awareness is Awareness.NOTICED and agent.reaction is Reaction.DECELERATE
        }
        labeled = braked & {pid for (pid, _) in truth.risk}
        flagged = {pid for (pid, _), lvl in truth.risk.items() if lvl is RiskLevel.RISK2} & labeled
        assert len(labeled) >= 8
        assert len(flagged) >= 0.7 * len(labeled)

    def test_labels_match_rule_oracle(self):
        spec = ScenarioSpec(seed=17, duration_s=90, n_adults=8, n_kids=3, n_cyclists=3)
        frames, truth = generate(spec)
        area_map = reference_area_map()

        by_agent = {}
        for frame in sorted(frames):
            for o in frames[frame]:
                by_agent.setdefault(o.agent_id, []).append(o)

        got = label_risk(agent_tracks(frames.items(), area_map), area_map)
        expect = rule_oracle(by_agent, truth, area_map)
        assert set(got) == set(expect)
        mismatches = {k: (int(got[k]), int(expect[k])) for k in got if got[k] != expect[k]}
        assert not mismatches

    def test_realized_ppet_equals_label_pet(self):
        """P-PET of realized times is the PET the labels read: for every
        labeled pedestrian and each vehicle that crossed one of its areas,
        ppet of their ground-truth crossing times gives, for that area, the
        pet of the pedestrian's occupancy (q0 to q1 for the closer area, q1
        to q2 for the further one) and the vehicle's, bit for bit."""
        spec = ScenarioSpec(seed=17, duration_s=90, n_adults=8, n_kids=3, n_cyclists=3)
        _, truth = generate(spec)
        vehicles = {"3.1": [], "3.2": []}
        for agent in truth.agents.values():
            if agent.category.is_vehicle and {"enter", "leave"} <= set(agent.crossing_times):
                vehicles[agent.conflict_area].append((agent.crossing_times["enter"], agent.crossing_times["leave"]))

        compared = 0
        for ped_id in sorted({ped_id for ped_id, _ in truth.risk}):
            agent = truth.agents[ped_id]
            ped = [agent.crossing_times[q] for q in ("q0", "q1", "q2")]
            occupancies = ((ped[0], ped[1]), (ped[1], ped[2]))
            areas = closer_further_assignment(Direction(agent.direction))
            for i, (area_id, occupancy) in enumerate(zip(areas, occupancies)):
                for times in vehicles[area_id]:
                    vehicle_times = [(None, None), (None, None)]
                    vehicle_times[i] = times
                    realized = ppet(ped, vehicle_times)
                    expect = pet(*occupancy, *times)
                    assert [v.hex() for v in realized.area(i)] == [v.hex() for v in expect]
                    assert realized.area(1 - i) == (None, None)
                    compared += 1
        assert compared >= 50


def rule_oracle(by_agent, truth: GroundTruth, area_map):
    """Hand-auditable re-statement of the labeling rule, working from the
    ground-truth crossing times: Risk0 with no vehicle in the horizon, Risk2
    under the severe PET cutoff or an evasive speed change, else Risk1."""
    vehicles = {"3.1": [], "3.2": []}
    for agent_id, agent in truth.agents.items():
        if agent.category.is_vehicle and {"enter", "leave"} <= set(agent.crossing_times):
            vehicles[agent.conflict_area].append(
                (agent.crossing_times["enter"], agent.crossing_times["leave"])
            )

    out = {}
    for agent_id, agent in truth.agents.items():
        if not agent.category.is_pedestrian or agent.direction is None:
            continue
        ct = agent.crossing_times
        if not {"q0", "q1", "q2"} <= set(ct):
            continue
        closer, further = ("3.1", "3.2") if agent.direction == "ltr" else ("3.2", "3.1")
        windows = {"closer": (ct["q0"], ct["q1"]), "further": (ct["q1"], ct["q2"])}
        areas = {"closer": closer, "further": further}

        evasive = oracle_evasive(by_agent[agent_id], area_map)
        pets = {}
        for role in ("closer", "further"):
            pe, pl = windows[role]
            vals = []
            for ve, vl in vehicles[areas[role]]:
                if ve > pl + 60.0 or vl < pe - 60.0:
                    continue
                if ve >= pl:
                    vals.append(ve - pl)
                elif pe >= vl:
                    vals.append(pe - vl)
                else:
                    vals.append(0.0)
            pets[role] = min((abs(v) for v in vals), default=None)

        evasive_role = None
        if evasive:
            with_vehicles = [r for r in ("closer", "further") if pets[r] is not None]
            if with_vehicles:
                evasive_role = min(with_vehicles, key=lambda r: (pets[r], r != "closer"))
        for role in ("closer", "further"):
            if pets[role] is None:
                out[(agent_id, role)] = RiskLevel.RISK0
            elif pets[role] < LABEL_PET_SEVERE_S or role == evasive_role:
                out[(agent_id, role)] = RiskLevel.RISK2
            else:
                out[(agent_id, role)] = RiskLevel.RISK1
    return out


def oracle_evasive(trajectory, area_map) -> bool:
    if len(trajectory) < 60:
        return False
    xy = np.array([[o.position.x, o.position.y] for o in trajectory])
    ts = np.array([o.t for o in trajectory])
    speed = np.hypot(*np.diff(xy, axis=0).T) / np.diff(ts)
    smooth = np.convolve(speed, np.ones(10) / 10.0, mode="valid")
    baseline = float(np.median(smooth[: min(len(smooth), 45)]))
    if baseline <= 0:
        return False
    active = []
    for i, o in enumerate(trajectory[9:-1][: len(smooth)]):
        area = locate_area(area_map, o.position)
        active.append(area is not None and area[0] in "23")
    active = np.array(active)
    if not active.any():
        return False
    return bool(
        smooth[active].min() < 0.7 * baseline or smooth[active].max() > 1.3 * baseline
    )


@pytest.fixture(scope="module")
def big_run():
    spec = ScenarioSpec(
        seed=29, duration_s=420, n_adults=70, n_kids=70, n_cyclists=60,
        vehicle_rate_per_min=0.0, conflict_probability=0.0,
    )
    return generate(spec)


class TestKinematics:
    def test_mean_crossing_durations(self, big_run):
        _, truth = big_run
        targets = {
            AgentCategory.ADULT: 5.49,
            AgentCategory.KID: 5.36,
            AgentCategory.CYCLIST: 3.01,
        }
        for category, target in targets.items():
            durations = [
                agent.crossing_times["q2"] - agent.crossing_times["q0"]
                for agent in truth.agents.values()
                if agent.category is category and {"q0", "q2"} <= set(agent.crossing_times)
            ]
            assert len(durations) >= 40
            mean = float(np.mean(durations))
            assert abs(mean - target) / target < 0.10, (category, mean)

    def test_crossing_times_defined_for_all_q(self, big_run):
        frames, truth = big_run
        area_map = reference_area_map()
        by_agent = {}
        for frame in sorted(frames):
            for o in frames[frame]:
                by_agent.setdefault(o.agent_id, []).append(o)
        for agent_id, agent in truth.agents.items():
            if not agent.category.is_pedestrian:
                continue
            reached_3 = any(
                (a := locate_area(area_map, o.position)) is not None and a.startswith("3.")
                for o in by_agent[agent_id]
            )
            completed = any(o.position.x > 11.5 or o.position.x < -0.5 for o in by_agent[agent_id][-5:])
            if reached_3 and completed and agent.direction is not None:
                assert {"q0", "q1", "q2"} <= set(agent.crossing_times), agent_id

    def test_unaware_speed_independent_of_vehicles(self):
        """Welch two-sample test between pedestrians whose truth says they
        did not notice a vehicle, split by whether one came tightly timed.
        Without background traffic only dedicated vehicles do, so each
        group holds dozens of them."""
        spec = ScenarioSpec(
            seed=31, duration_s=900, n_adults=300, n_kids=0, n_cyclists=0,
            vehicle_rate_per_min=0.0, conflict_probability=0.5, risky_fraction=0.5,
        )
        frames, truth = generate(spec)
        durations_with, durations_without = [], []
        for agent_id, agent in truth.agents.items():
            if (not agent.category.is_pedestrian or agent.awareness is not Awareness.DID_NOT_NOTICE
                    or not {"q0", "q2"} <= set(agent.crossing_times)):
                continue
            duration = agent.crossing_times["q2"] - agent.crossing_times["q0"]
            tight_conflict = any(
                level is RiskLevel.RISK2
                for (pid, _), level in truth.risk.items()
                if pid == agent_id
            )
            (durations_with if tight_conflict else durations_without).append(duration)
        assert len(durations_with) >= 30 and len(durations_without) >= 30
        p = welch_p_value(np.array(durations_with), np.array(durations_without))
        assert p > 0.01

    def test_kid_variance_larger_in_further_area(self):
        spec = ScenarioSpec(
            seed=37, duration_s=420, n_adults=0, n_kids=80, n_cyclists=0,
            vehicle_rate_per_min=0.0, conflict_probability=0.0,
        )
        frames, _ = generate(spec)
        lateral_closer, lateral_further = [], []
        for frame in frames.values():
            for o in frame:
                half = "closer" if (o.position.x < 5.5) == True else "further"
                # lateral spread around the walking lane
                if 0.0 < o.position.x < 11.0:
                    (lateral_closer if o.position.x < 5.5 else lateral_further).append(o.position.y)
        assert np.std(lateral_further) > np.std(lateral_closer)


def welch_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided Welch t-test p-value with a normal approximation."""
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    t = (a.mean() - b.mean()) / math.sqrt(va + vb)
    return math.erfc(abs(t) / math.sqrt(2))
