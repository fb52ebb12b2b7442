import math

import numpy as np
import pytest

from crossrisk.errors import NoApproach, NonPositiveVelocity, PredictionError, ZeroDisplacement
from crossrisk.geometry import TargetLine, WorldPoint, signed_distance_to_line
from crossrisk.predictors import ARRIVAL_TIME_CAP_S, HistoricalAveragePredictor
from crossrisk.predictors.historical import (
    VELOCITY_FLOOR,
    arrival_time,
    average_velocity,
    direction_vector,
    stacked_arrival_times,
)
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory

from conftest import FPS, constant_velocity_window, make_window, vertical_line


class TestDirectionVector:
    def test_three_four_five(self):
        w = constant_velocity_window((0.0, 0.0), (3.0 / (29 / FPS), 4.0 / (29 / FPS)))
        d, norm, theta = direction_vector(w)
        assert d == pytest.approx([3.0, 4.0])
        assert norm == pytest.approx(5.0)
        assert theta == pytest.approx(math.atan2(4.0, 3.0))

    def test_zero_displacement(self):
        w = constant_velocity_window((1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ZeroDisplacement):
            direction_vector(w)

    def test_norm_matches_hypot_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            start = rng.uniform(-5, 5, 2)
            vel = rng.uniform(-2, 2, 2)
            if np.hypot(*vel) < 0.05:
                continue
            w = constant_velocity_window(tuple(start), tuple(vel))
            _, norm, _ = direction_vector(w)
            end = start + vel * (WINDOW_SIZE - 1) / FPS
            assert norm == pytest.approx(math.hypot(*(end - start)), rel=1e-12)


class TestAverageVelocity:
    def test_uniform_motion(self):
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        d, _, _ = direction_vector(w)
        assert average_velocity(w, d) == pytest.approx(1.0)

    def test_orthogonal_projection_rejected(self):
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(NonPositiveVelocity):
            average_velocity(w, np.array([0.0, 1.0]))

    def test_accelerating_matches_per_step_oracle(self):
        # speed ramps 0 -> 2 m/s linearly over the window, along +x
        dt = 1.0 / FPS
        speeds = np.linspace(0.0, 2.0, WINDOW_SIZE - 1)
        xs = np.concatenate([[0.0], np.cumsum(speeds * dt)])
        w = make_window(np.column_stack([xs, np.zeros(WINDOW_SIZE)]))
        d, _, _ = direction_vector(w)
        # oracle: mean of forward-difference velocities projected on +x
        oracle = float(np.mean(np.diff(xs) / dt))
        assert average_velocity(w, d) == pytest.approx(oracle, rel=1e-12)


class TestArrivalTime:
    def test_straight_perpendicular_approach(self):
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        # window end sits at x = 1.0 * 29/30; place the line 2 m further
        end_x = 29 / FPS
        t = arrival_time(w, vertical_line(end_x + 2.0))
        assert t == pytest.approx(2.0, rel=1e-12)

    def test_end_point_on_line(self):
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        t = arrival_time(w, vertical_line(29 / FPS))
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_oblique_approach_against_simulation_oracle(self):
        # 1 m/s at 45 degrees to the line normal, 2 m from the line
        velocity = (math.cos(math.pi / 4), math.sin(math.pi / 4))
        w = constant_velocity_window((0.0, 0.0), velocity)
        end = w.end_position
        line = vertical_line(end.x + 2.0)
        predicted = arrival_time(w, line)
        assert predicted == pytest.approx(2.0 / math.cos(math.pi / 4), rel=1e-9)

        # forward-euler oracle: step the constant-velocity point until crossing
        dt = 1e-5
        pos = np.array([end.x, end.y])
        t_sim = 0.0
        while signed_distance_to_line(WorldPoint(*pos), line) > 0:
            pos += np.array(velocity) * dt
            t_sim += dt
        assert predicted == pytest.approx(t_sim, abs=1e-3)

    def test_past_line_raises(self):
        w = constant_velocity_window((10.0, 0.0), (1.0, 0.0))
        with pytest.raises(NoApproach):
            arrival_time(w, vertical_line(5.0))

    def test_receding_raises(self):
        w = constant_velocity_window((0.0, 0.0), (-1.0, 0.0))
        with pytest.raises(NoApproach):
            arrival_time(w, vertical_line(5.0))

    def test_cap_on_near_tangential_approach(self):
        w = constant_velocity_window((0.0, 0.0), (0.001, 1.0))
        t = arrival_time(w, vertical_line(50.0))
        assert t == ARRIVAL_TIME_CAP_S

    def test_ha_exactness_on_random_constant_velocity(self):
        """Constant-velocity windows against the analytic crossing time."""
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 500:
            start = rng.uniform(-5, 5, 2)
            speed = rng.uniform(0.3, 3.0)
            heading = rng.uniform(-1.2, 1.2)  # keeps a +x component
            velocity = np.array([speed * math.cos(heading), speed * math.sin(heading)])
            line_x = rng.uniform(start[0] + 4.0, start[0] + 12.0)
            w = constant_velocity_window(tuple(start), tuple(velocity))
            end = w.end_position
            if line_x <= end.x:
                continue
            analytic = (line_x - end.x) / velocity[0]
            if analytic > ARRIVAL_TIME_CAP_S:
                continue
            got = arrival_time(w, vertical_line(line_x))
            assert abs(got - analytic) / analytic < 1e-9
            checked += 1

    def test_translation_invariance(self):
        rng = np.random.default_rng(53)
        w = constant_velocity_window((0.5, -1.0), (1.3, 0.4))
        line = vertical_line(6.0)
        base = arrival_time(w, line)
        for _ in range(20):
            shift = rng.uniform(-30, 30, 2)
            w2 = constant_velocity_window((0.5 + shift[0], -1.0 + shift[1]), (1.3, 0.4))
            line2 = TargetLine(
                WorldPoint(6.0 + shift[0], -5.0 + shift[1]),
                WorldPoint(6.0 + shift[0], 5.0 + shift[1]),
                (1.0, 0.0),
            )
            assert arrival_time(w2, line2) == pytest.approx(base, rel=1e-9)

    def test_predictor_wrapper(self):
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        pred = HistoricalAveragePredictor().predict(w, vertical_line(29 / FPS + 3.0))
        assert pred == pytest.approx(3.0, rel=1e-12)


def _one_window_arrival(window, line):
    """Arrival seconds from the one-window direction_vector and
    average_velocity, or the PredictionError the request fails with."""
    try:
        d, _, theta = direction_vector(window)
        v_avg = average_velocity(window, d)
    except PredictionError as exc:
        return exc
    dist = signed_distance_to_line(window.end_position, line)
    if dist < 0.0:
        return NoApproach("past the line")
    closing = v_avg * math.cos(theta - math.atan2(line.normal[1], line.normal[0]))
    if closing <= VELOCITY_FLOOR:
        return NoApproach("receding")
    return min(max(dist / closing, 0.0), ARRIVAL_TIME_CAP_S)


def _same(got, expected):
    if isinstance(expected, PredictionError):
        return type(got) is type(expected)
    return type(got) is float and got == expected


class TestStackedArrivalTimes:
    """The stacked baseline against one window at a time, bit for bit."""

    def _windows(self):
        rng = np.random.default_rng(17)
        windows = [
            constant_velocity_window((1.0, 1.0), (0.0, 0.0), agent_id="still"),
            constant_velocity_window((0.0, 0.0), (-1.0, 0.0), agent_id="receding"),
            constant_velocity_window((10.0, 0.0), (1.0, 0.0), agent_id="past"),
            constant_velocity_window((0.0, 0.0), (0.001, 1.0), agent_id="tangential"),
            # net displacement forward in one slow step, then quick steps back:
            # the mean per-step speed along the displacement is negative
            SlidingWindowTrajectory(
                "back", AgentCategory.ADULT, 0, np.r_[0.0, 1.0 + np.arange(WINDOW_SIZE - 1) / FPS],
                np.column_stack([np.r_[0.0, np.linspace(5.0, 0.5, WINDOW_SIZE - 1)], np.zeros(WINDOW_SIZE)]),
            ),
        ]
        for i in range(2000):
            walk = np.cumsum(rng.normal(0.0, 0.05, (WINDOW_SIZE, 2)), axis=0)
            drift = rng.uniform(-2.0, 2.0, 2) * np.arange(WINDOW_SIZE)[:, None] / FPS
            start = rng.uniform(-10.0, 10.0, 2)
            times = np.cumsum(rng.uniform(0.5, 1.5, WINDOW_SIZE)) / FPS
            positions = start + walk + drift
            windows.append(SlidingWindowTrajectory(f"r{i}", AgentCategory.ADULT, 0, times, positions))
        return windows

    def test_matches_one_window_functions(self):
        windows = self._windows()
        lines = [vertical_line(5.0), vertical_line(-5.0, nx=-1.0), vertical_line(50.0), vertical_line(0.5)]
        requests = [(w, line) for w in windows for line in lines]
        with np.errstate(all="raise"):
            got = stacked_arrival_times(requests)
            expected = [_one_window_arrival(w, line) for w, line in requests]
        assert all(_same(g, e) for g, e in zip(got, expected))
        kinds = {type(e).__name__ for e in expected}
        assert {"float", "ZeroDisplacement", "NonPositiveVelocity", "NoApproach"} <= kinds
        assert ARRIVAL_TIME_CAP_S in expected

    def test_failures_carry_their_class_and_agent(self):
        windows = self._windows()[:5]
        line = vertical_line(5.0)
        with np.errstate(all="raise"):
            got = stacked_arrival_times([(w, line) for w in windows])
        assert [type(g).__name__ for g in got] == [
            "ZeroDisplacement", "NoApproach", "NoApproach", "float", "NonPositiveVelocity",
        ]
        assert "agent still" in str(got[0]) and "agent back" in str(got[4])

    def test_stack_is_row_independent(self):
        """Every request gets the answer it gets alone, in any stack."""
        windows = self._windows()
        rng = np.random.default_rng(3)
        line = vertical_line(5.0)
        alone = [stacked_arrival_times([(w, line)])[0] for w in windows]
        order = rng.permutation(len(windows))
        with np.errstate(all="raise"):
            got = stacked_arrival_times([(windows[i], line) for i in order])
        assert all(_same(got[k], alone[i]) for k, i in enumerate(order))

    def test_arrival_time_raises_the_failure(self):
        w = constant_velocity_window((1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ZeroDisplacement):
            arrival_time(w, vertical_line(5.0))
        with pytest.raises(ZeroDisplacement):
            HistoricalAveragePredictor().predict(w, vertical_line(5.0))
