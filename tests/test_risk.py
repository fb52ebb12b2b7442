import math

import numpy as np
import pytest

from crossrisk.errors import MissingThreshold
from crossrisk.geometry import WorldPoint
from crossrisk.ppet import PPetVector
from crossrisk.risk import (
    AREAS,
    MODE_ROLES,
    AreaRole,
    CategoryThresholds,
    DecisionKind,
    RiskLevel,
    RiskThresholdConfig,
    RoleThresholds,
    ThresholdInterval,
    ThresholdMode,
    classify_offline,
    component_values,
    hit_count,
    interval_bounds,
    select_conflict_vehicle,
    step_evaluate,
)
from crossrisk.stream import AgentCategory, PedestrianState, PedestrianStatus


def ped_state(category=AgentCategory.ADULT, area="2.1"):
    return PedestrianState(
        "p0", category, status=PedestrianStatus.TARGET, current_area=area
    )


def ctx(frame=0):
    """step_evaluate's frame arguments: time, pedestrian position and
    conflict vehicles."""
    vehicles = {
        AreaRole.CLOSER: ("v1", WorldPoint(2.75, 5.0)),
        AreaRole.FURTHER: ("v2", WorldPoint(8.25, 5.0)),
    }
    return frame / 30.0, WorldPoint(1.0, 1.0), vehicles


def replay_streaming(trace, category, config):
    """Frame-ordered step_evaluate replay; returns per-area levels read from
    the Risk 2 flags it emits."""
    state = ped_state(category)
    flagged = set()
    for frame, vector in enumerate(trace):
        decisions = step_evaluate(state, vector, config, *ctx(frame))
        flagged.update(d.area for d in decisions if d.kind is DecisionKind.RISK2_FLAGGED)
    if flagged and config.for_category(category).mode is ThresholdMode.MERGED_AREA:
        flagged = set(AREAS)
    return {role: RiskLevel.RISK2 if role in flagged else RiskLevel.RISK1 for role in AREAS}


def random_trace(rng, n, none_rate=0.2):
    out = []
    for _ in range(n):
        parts = {}
        for name in ("c_pf", "c_vf", "f_pf", "f_vf"):
            if rng.uniform() < none_rate:
                parts[name] = None
            else:
                parts[name] = float(rng.uniform(-4, 3))
        out.append(PPetVector(**parts))
    return out


class TestSelectConflictVehicle:
    def test_picks_nearest(self):
        ped = WorldPoint(0.0, 0.0)
        candidates = [("far", WorldPoint(12.0, 0.0)), ("near", WorldPoint(7.0, 0.0))]
        assert select_conflict_vehicle(ped, candidates) == "near"

    def test_none_when_empty(self):
        assert select_conflict_vehicle(WorldPoint(0, 0), []) is None

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ped = WorldPoint(float(rng.uniform(-5, 15)), float(rng.uniform(-2, 4)))
            candidates = [
                (f"v{k}", WorldPoint(float(rng.uniform(-10, 20)), float(rng.uniform(-10, 20))))
                for k in range(20)
            ]
            expected = min(
                candidates, key=lambda c: math.hypot(c[1].x - ped.x, c[1].y - ped.y)
            )[0]
            assert select_conflict_vehicle(ped, candidates) == expected


class TestDefaults:
    def test_shipped_values(self):
        config = RiskThresholdConfig.default()
        adult = config.for_category(AgentCategory.ADULT)
        assert adult.mode is ThresholdMode.PER_AREA
        assert adult.roles == {
            AreaRole.CLOSER: RoleThresholds(ThresholdInterval(-0.7, 0.1), ThresholdInterval(0.1, 1.1), 3),
            AreaRole.FURTHER: RoleThresholds(ThresholdInterval(-2.5, -1.5), ThresholdInterval(0.9, 2.4), 3),
        }
        cyclist = config.for_category(AgentCategory.CYCLIST)
        assert cyclist.roles[AreaRole.CLOSER].pf == ThresholdInterval(-3.0, -2.6)
        assert cyclist.roles[AreaRole.CLOSER].limit == 5
        assert cyclist.roles[AreaRole.FURTHER].limit == 3
        kid = config.for_category(AgentCategory.KID)
        assert kid.mode is ThresholdMode.MERGED_AREA
        assert kid.roles == {
            AreaRole.MERGED: RoleThresholds(ThresholdInterval(-3.3, -3.1), ThresholdInterval(1.0, 1.5), 3),
        }

    def test_json_round_trip(self, tmp_path):
        config = RiskThresholdConfig.default()
        path = tmp_path / "thresholds.json"
        config.save(str(path))
        back = RiskThresholdConfig.load(str(path))
        assert back.to_dict() == config.to_dict()

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ThresholdInterval(1.0, 0.0)

    def test_missing_category(self):
        config = RiskThresholdConfig.default()
        with pytest.raises(MissingThreshold):
            config.for_category(AgentCategory.VEHICLE_AREA_41)


class TestModeRoles:
    def test_each_mode_lists_its_roles_and_the_areas_each_judges(self):
        closer, further, merged = AreaRole.CLOSER, AreaRole.FURTHER, AreaRole.MERGED
        assert AREAS == (closer, further)
        table = {mode: list(roles.items()) for mode, roles in MODE_ROLES.items()}
        assert table == {
            ThresholdMode.PER_AREA: [(closer, (closer,)), (further, (further,))],
            ThresholdMode.MERGED_AREA: [(merged, (closer, further))],
        }

    @pytest.mark.parametrize("mode", list(ThresholdMode))
    def test_thresholds_must_hold_every_role_of_their_mode(self, mode):
        record = RoleThresholds(ThresholdInterval(0.0, 1.0), ThresholdInterval(0.0, 1.0), 2)
        roles = dict.fromkeys(MODE_ROLES[mode], record)
        assert CategoryThresholds(mode, roles).roles == roles
        for role in AreaRole:
            wrong = {r: record for r in roles if r is not role} if role in roles else {**roles, role: record}
            with pytest.raises(ValueError, match=f"{mode.value} thresholds need roles"):
                CategoryThresholds(mode, wrong)

    def test_counter_limit_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="counter limits must be >= 1, got 0"):
            RoleThresholds(ThresholdInterval(0.0, 1.0), ThresholdInterval(0.0, 1.0), 0)


class TestStepEvaluate:
    def test_adult_closer_pf_in_interval_increments(self):
        config = RiskThresholdConfig.default()
        state = ped_state()
        decisions = step_evaluate(state, PPetVector(c_pf=-0.3), config, *ctx())
        assert [d.kind for d in decisions] == [DecisionKind.COUNTER_INCREMENTED]
        assert decisions[0].area is AreaRole.CLOSER
        assert state.risk_counters[AreaRole.CLOSER.value] == 1

    def test_flag_when_counter_strictly_exceeds_limit(self):
        config = RiskThresholdConfig.default()
        state = ped_state()
        flagged_at = None
        for frame in range(6):
            decisions = step_evaluate(state, PPetVector(c_pf=-0.3), config, *ctx(frame))
            if any(d.kind is DecisionKind.RISK2_FLAGGED for d in decisions):
                flagged_at = frame
                break
        # limit 3 and strict >: the fourth in-range frame flags
        assert flagged_at == 3
        scenario = [d for d in decisions if d.kind is DecisionKind.RISK2_FLAGGED][0].scenario
        assert scenario.ped_id == "p0"
        assert scenario.veh_id == "v1"
        assert scenario.area is AreaRole.CLOSER

    def test_flagging_is_idempotent(self):
        """One flag per role and episode, also for the kid merged role, whose
        counter takes two increments per frame."""
        config = RiskThresholdConfig.default()
        inputs = [
            (AgentCategory.ADULT, PPetVector(c_pf=-0.3)),
            (AgentCategory.KID, PPetVector(c_pf=-3.2, f_pf=-3.2)),
        ]
        for category, vector in inputs:
            state = ped_state(category)
            flags = 0
            for frame in range(40):
                decisions = step_evaluate(state, vector, config, *ctx(frame))
                flags += sum(d.kind is DecisionKind.RISK2_FLAGGED for d in decisions)
            assert flags == 1

    def test_kid_merged_out_of_range_is_no_change(self):
        config = RiskThresholdConfig.default()
        state = ped_state(AgentCategory.KID)
        decisions = step_evaluate(state, PPetVector(c_pf=-2.0), config, *ctx())
        assert decisions == []
        assert state.risk_counters == {}

    def test_kid_merged_aggregates_both_areas(self):
        config = RiskThresholdConfig.default()
        state = ped_state(AgentCategory.KID)
        # both areas in the merged PF range each frame: +2 per frame
        vec = PPetVector(c_pf=-3.2, f_pf=-3.2)
        step_evaluate(state, vec, config, *ctx(0))
        assert state.risk_counters[AreaRole.MERGED.value] == 2
        decisions = step_evaluate(state, vec, config, *ctx(1))
        # count reaches 4 > 3 on the closer increment of frame 1
        assert any(d.kind is DecisionKind.RISK2_FLAGGED for d in decisions)

    def test_at_most_one_increment_per_area_per_frame(self):
        config = RiskThresholdConfig.default()
        state = ped_state()
        # both PF and VF of the closer area in range simultaneously
        step_evaluate(state, PPetVector(c_pf=-0.3, c_vf=0.5), config, *ctx())
        assert state.risk_counters[AreaRole.CLOSER.value] == 1

    def test_no_evaluation_in_area_1(self):
        config = RiskThresholdConfig.default()
        state = ped_state(area="1.1")
        for frame in range(10):
            assert step_evaluate(state, PPetVector(c_pf=-0.3), config, *ctx(frame)) == []
        assert state.risk_counters == {}

    def test_unavailable_components_never_fire(self):
        config = RiskThresholdConfig.default()
        state = ped_state()
        for frame in range(10):
            step_evaluate(state, PPetVector(), config, *ctx(frame))
        assert state.risk_counters == {}

    def test_missing_threshold_category(self):
        config = RiskThresholdConfig.default()
        state = ped_state(AgentCategory.VEHICLE_AREA_41)
        with pytest.raises(MissingThreshold):
            step_evaluate(state, PPetVector(c_pf=-0.3), config, *ctx())


class TestHitCount:
    def test_every_pair_matches_the_per_frame_or_rule(self):
        # values on the half-second grid land on interval bounds, which are closed
        rng = np.random.default_rng(37)
        trace = [
            PPetVector(**{k: (None if rng.uniform() < 0.2 else float(rng.integers(-8, 7)) / 2)
                          for k in ("c_pf", "c_vf")})
            for _ in range(60)
        ]
        pf_values, vf_values = component_values(trace, AreaRole.CLOSER)
        axis = [-3.0, -1.5, -0.5, 0.0, 1.0, 2.5]
        pf_intervals = [ThresholdInterval(a, b) for a in axis for b in axis if a <= b]
        vf_intervals = pf_intervals[::3]
        counts = hit_count(pf_values, vf_values, interval_bounds(pf_intervals), interval_bounds(vf_intervals))
        assert counts.shape == (len(pf_intervals), len(vf_intervals))
        for i, pf in enumerate(pf_intervals):
            for j, vf in enumerate(vf_intervals):
                expect = sum(
                    1 for v in trace
                    if (v.c_pf is not None and pf.contains(v.c_pf))
                    or (v.c_vf is not None and vf.contains(v.c_vf))
                )
                assert counts[i, j] == expect, (pf, vf)

    def test_empty_trace_counts_nothing(self):
        bounds = interval_bounds([ThresholdInterval(-1.0, 0.0), ThresholdInterval(0.0, 1.0)])
        counts = hit_count(np.array([]), np.array([]), bounds, bounds[:1])
        assert counts.shape == (2, 1) and not counts.any()


class TestClassifyOffline:
    def test_empty_trace_is_risk_1(self):
        config = RiskThresholdConfig.default()
        out = classify_offline([], AgentCategory.ADULT, config)
        assert out == {AreaRole.CLOSER: RiskLevel.RISK1, AreaRole.FURTHER: RiskLevel.RISK1}

    def test_theta_plus_one_in_interval_frames_is_risk_2(self):
        config = RiskThresholdConfig.default()
        trace = [PPetVector(c_pf=-0.3)] * 4  # limit 3, strict >
        out = classify_offline(trace, AgentCategory.ADULT, config)
        assert out[AreaRole.CLOSER] is RiskLevel.RISK2
        assert out[AreaRole.FURTHER] is RiskLevel.RISK1

    def test_theta_in_interval_frames_is_still_risk_1(self):
        config = RiskThresholdConfig.default()
        trace = [PPetVector(c_pf=-0.3)] * 3
        out = classify_offline(trace, AgentCategory.ADULT, config)
        assert out[AreaRole.CLOSER] is RiskLevel.RISK1

    def test_streaming_batch_equivalence_random_traces(self):
        rng = np.random.default_rng(23)
        config = RiskThresholdConfig.default()
        for episode in range(200):
            n = int(rng.integers(0, 60))
            trace = random_trace(rng, n)
            for category in (AgentCategory.ADULT, AgentCategory.KID, AgentCategory.CYCLIST):
                batch = classify_offline(trace, category, config)
                streaming = replay_streaming(trace, category, config)
                assert batch == streaming, f"episode {episode} category {category}"

    def test_monotone_in_counter_limit(self):
        rng = np.random.default_rng(29)
        pf, vf = ThresholdInterval(-1.0, 0.0), ThresholdInterval(0.0, 1.0)
        traces = [random_trace(rng, 40) for _ in range(50)]
        flags_by_theta = []
        for theta in (1, 2, 3, 5, 8):
            config = RiskThresholdConfig({
                AgentCategory.ADULT: CategoryThresholds(
                    ThresholdMode.PER_AREA, dict.fromkeys(AREAS, RoleThresholds(pf, vf, theta))
                )
            })
            flagged = {
                (i, role)
                for i, trace in enumerate(traces)
                for role, level in classify_offline(trace, AgentCategory.ADULT, config).items()
                if level is RiskLevel.RISK2
            }
            flags_by_theta.append(flagged)
        for smaller, larger in zip(flags_by_theta, flags_by_theta[1:]):
            assert larger <= smaller

    def test_monotone_in_interval_width(self):
        rng = np.random.default_rng(31)
        traces = [random_trace(rng, 40) for _ in range(50)]

        def config_for(width):
            pf = ThresholdInterval(-1.0 - width, 0.0 + width)
            vf = ThresholdInterval(0.0 - width, 1.0 + width)
            return RiskThresholdConfig({
                AgentCategory.ADULT: CategoryThresholds(
                    ThresholdMode.PER_AREA, dict.fromkeys(AREAS, RoleThresholds(pf, vf, 3))
                )
            })

        previous = None
        for width in (0.0, 0.3, 0.8, 1.5):
            config = config_for(width)
            flagged = {
                (i, role)
                for i, trace in enumerate(traces)
                for role, level in classify_offline(trace, AgentCategory.ADULT, config).items()
                if level is RiskLevel.RISK2
            }
            if previous is not None:
                assert previous <= flagged
            previous = flagged
