import dataclasses
import logging
import math

import numpy as np
import pytest

from crossrisk.geometry import TargetLine, WorldPoint, pedestrian_line_name, vehicle_line_name
from crossrisk.predictors.dataset import (
    Awareness,
    LabeledSample,
    build_labeled_dataset,
    read_samples_jsonl,
    write_samples_jsonl,
)
from crossrisk.predictors.historical import HistoricalAveragePredictor
from crossrisk.predictors.recurrent import RecurrentRegressor
from crossrisk.predictors.training import TrainingConfig, train, train_bundle
from crossrisk.stream import AgentCategory, Direction, Observation, SlidingWindowTrajectory, Track, TrajectoryBuffer, window

from conftest import constant_velocity_window
from helpers import track_with_targets

FPS = 30.0


def straight_trajectory(agent_id, x0, v, n, y=1.0, category=AgentCategory.ADULT):
    return [
        Observation(i, i / FPS, agent_id, category, WorldPoint(x0 + v * i / FPS, y))
        for i in range(n)
    ]


def vline(x, nx=1.0):
    return TargetLine(WorldPoint(x, -50.0), WorldPoint(x, 50.0), (nx, 0.0))


def crossing_oracle(trajectory, line_x):
    """Test-local linear scan for the first +x crossing, sub-frame interpolated."""
    xs = [o.position.x for o in trajectory]
    ts = [o.t for o in trajectory]
    for i in range(1, len(xs)):
        if xs[i - 1] < line_x <= xs[i]:
            frac = (line_x - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ts[i - 1] + frac * (ts[i] - ts[i - 1])
    return None


class TestBuildLabeledDataset:
    def test_constant_velocity_label(self):
        # window 0 ends at x = 29/30; line 5 m further; 1 m/s -> label 5.0 s
        traj = straight_trajectory("a0", 0.0, 1.0, 220)
        end_x = 29 / FPS
        target = (1, vline(end_x + 5.0))
        samples = build_labeled_dataset([track_with_targets(traj, [target])])
        assert samples[0].arrival_time == pytest.approx(5.0, rel=1e-12)

    def test_window_count_for_45_points_pre_crossing(self):
        # 45-point trajectory crossing exactly at its last sample: every
        # window is pre-crossing, so 45 - 30 + 1 = 16 samples
        traj = straight_trajectory("a0", 0.0, 1.0, 45)
        target = (1, vline(44 / FPS))
        samples = build_labeled_dataset([track_with_targets(traj, [target])])
        assert len(samples) == 16

    def test_labels_match_crossing_oracle(self):
        rng = np.random.default_rng(13)
        trajs = [
            straight_trajectory(f"a{k}", float(rng.uniform(-2, 0)), float(rng.uniform(0.7, 2.5)), 160)
            for k in range(5)
        ]
        line_x = 6.0
        target = (1, vline(line_x))
        samples = build_labeled_dataset([track_with_targets(traj, [target]) for traj in trajs])
        assert samples
        by_agent = {t[0].agent_id: t for t in trajs}
        for s in samples:
            t_cross = crossing_oracle(by_agent[s.window.agent_id], line_x)
            assert s.arrival_time == pytest.approx(t_cross - s.window.times[-1], abs=1e-9)

    def test_windows_after_crossing_excluded(self):
        traj = straight_trajectory("a0", 0.0, 1.0, 150)
        line_x = 2.0
        target = (1, vline(line_x))
        samples = build_labeled_dataset([track_with_targets(traj, [target])])
        t_cross = crossing_oracle(traj, line_x)
        assert all(s.window.times[-1] <= t_cross for s in samples)
        assert all(s.arrival_time >= 0.0 for s in samples)

    def test_never_reaching_trajectory_skipped_and_logged(self, caplog):
        traj = straight_trajectory("a0", 0.0, 1.0, 60)
        target = (1, vline(1000.0))
        with caplog.at_level(logging.INFO, logger="crossrisk.predictors.dataset"):
            samples = build_labeled_dataset([track_with_targets(traj, [target])])
        assert samples == []
        assert any("never crosses" in r.message for r in caplog.records)

    def test_annotations_attached(self):
        traj = straight_trajectory("a0", 0.0, 1.0, 120)
        target = (1, vline(3.0))
        samples = build_labeled_dataset([track_with_targets(traj, [target])], {"a0": Awareness.NOTICED})
        assert samples[0].awareness is Awareness.NOTICED


class TestTargetsForAgent:
    """An agent's (q, line) targets, as its Track holds them."""

    def test_pedestrian_ltr(self, area_map):
        track = Track.from_observations(straight_trajectory("a0", -5.0, 2.0, 60), area_map)
        assert track.direction is Direction.LEFT_TO_RIGHT
        assert [q for q, _ in track.targets] == [0, 1, 2]
        assert track.targets[0][1] is area_map.line(pedestrian_line_name("ltr", 0))
        assert track.targets[0][1].normal == (1.0, 0.0)

    def test_pedestrian_rtl(self, area_map):
        track = Track.from_observations(straight_trajectory("a0", 16.0, -2.0, 60), area_map)
        assert track.direction is Direction.RIGHT_TO_LEFT
        assert track.targets[1][1] is area_map.line(pedestrian_line_name("rtl", 1))
        assert track.targets[1][1].normal == (-1.0, 0.0)

    def test_vehicle_targets(self, area_map):
        traj = [
            Observation(i, i / FPS, "v0", AgentCategory.VEHICLE_AREA_41, WorldPoint(2.75, 20.0 - i * 0.3))
            for i in range(40)
        ]
        track = Track.from_observations(traj, area_map)
        assert track.direction is Direction.UNKNOWN
        assert [q for q, _ in track.targets] == [0, 1]
        assert track.targets[0][1] is area_map.line(vehicle_line_name("3.1", True))
        assert track.targets[1][1] is area_map.line(vehicle_line_name("3.1", False))

    def test_pedestrian_of_unknown_direction_has_no_targets(self, area_map, caplog):
        track = Track.from_observations(straight_trajectory("a0", 3.0, 0.1, 60), area_map)
        assert track.direction is Direction.UNKNOWN
        assert track.targets == () and track.crossings == []
        with caplog.at_level(logging.INFO, logger="crossrisk.predictors.dataset"):
            assert build_labeled_dataset([track]) == []
        assert any("no resolvable targets" in r.message for r in caplog.records)


class TestLabeledSample:
    @pytest.mark.parametrize(
        "category, q",
        [(AgentCategory.VEHICLE_AREA_41, 2), (AgentCategory.VEHICLE_AREA_42, -1), (AgentCategory.ADULT, 3)],
    )
    def test_q_outside_the_categorys_range_raises(self, category, q):
        """A sample's q must index one of its category's target lines."""
        w = constant_velocity_window((0.0, 1.0), (1.0, 0.0), category=category)
        with pytest.raises(ValueError, match=f"q={q} invalid for category {int(category)}"):
            LabeledSample(w, 1.0, q, vline(3.0))


class TestLabelsAgreeWithGroundTruth:
    """build-dataset's labels and the generator's ground truth take their
    lines and crossing times from one place."""

    # AgentTruth.crossing_times names of a target q, for a pedestrian (True) or a vehicle
    TRUTH_NAMES = {True: ("q0", "q1", "q2"), False: ("enter", "leave")}

    @pytest.fixture(scope="class")
    def generated(self, area_map):
        from crossrisk.stream import agent_tracks
        from crossrisk.synthgen import ScenarioSpec, generate

        frames, truth = generate(ScenarioSpec(seed=4, duration_s=60, n_adults=4, n_kids=2, n_cyclists=2))
        return agent_tracks(frames, area_map), truth

    def test_label_is_truth_crossing_minus_window_end(self, generated):
        tracks, truth = generated
        samples = build_labeled_dataset(tracks)
        for s in samples:
            name = self.TRUTH_NAMES[s.category.is_pedestrian][s.q]
            t_cross = truth.agents[s.window.agent_id].crossing_times[name]
            assert float(s.arrival_time).hex() == float(t_cross - s.window.times[-1]).hex()
        assert {s.category.is_pedestrian for s in samples} == {True, False}
        assert {s.q for s in samples} == {0, 1, 2}

    def test_truth_crossing_times_name_the_agents_target_lines(self, generated, area_map):
        from crossrisk.errors import UnknownDirection
        from crossrisk.geometry import first_crossing_time
        from crossrisk.stream import target_lines

        tracks, truth = generated
        for track in tracks:
            agent = truth.agents[track.agent_id]
            assert track.direction is Direction(agent.direction or "unknown")
            try:
                lines = target_lines(area_map, agent.category, Direction(agent.direction or "unknown"))
            except UnknownDirection:
                lines = ()
            crossings = [first_crossing_time(track.positions, track.times, line) for line in lines]
            expect = {
                name: t for name, t in zip(self.TRUTH_NAMES[agent.category.is_pedestrian], crossings)
                if t is not None
            }
            assert agent.crossing_times == expect
        assert any(t.category.is_pedestrian and t.direction is not Direction.UNKNOWN for t in tracks)
        assert any(len(a.crossing_times) == 3 for a in truth.agents.values())
        assert any(set(a.crossing_times) == {"enter", "leave"} for a in truth.agents.values())


class TestSamplesFile:
    def test_jsonl_round_trip(self, tmp_path):
        traj = straight_trajectory("a0", 0.0, 1.2, 120, category=AgentCategory.KID)
        target = (2, vline(3.0))
        samples = build_labeled_dataset([track_with_targets(traj, [target])], {"a0": Awareness.NOTICED})
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(str(path), samples)
        back = read_samples_jsonl(str(path))
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert a.arrival_time == b.arrival_time
            assert a.category == b.category
            assert a.q == b.q
            assert a.line == b.line
            assert a.awareness == b.awareness
            wa, wb = a.window, b.window
            assert (wa.agent_id, wa.category, wa.first_frame) == (wb.agent_id, wb.category, wb.first_frame)
            assert wb.times.dtype == wb.positions.dtype == np.float64
            assert np.array_equal(wa.times, wb.times)
            assert np.array_equal(wa.positions, wb.positions)

    def test_live_window_and_samples_file_predict_identically(self, tmp_path):
        """A window cut from a live buffer and the same points after
        build -> write -> read give bit-identical predictions."""
        rng = np.random.default_rng(5)
        traj = [
            Observation(
                i, i / FPS, "a0", AgentCategory.ADULT,
                WorldPoint(-2.0 + 1.3 * i / FPS + 0.01 * math.sin(i / 3), 1.0 + float(rng.normal(0.0, 0.01))),
            )
            for i in range(60)
        ]
        line = vline(0.3)
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        for o in traj[:45]:
            buf.append(o)
        live = window(buf)
        path = tmp_path / "samples.jsonl"
        target = (1, line)
        write_samples_jsonl(str(path), build_labeled_dataset([track_with_targets(traj, [target])]))
        stored = [s.window for s in read_samples_jsonl(str(path)) if s.window.first_frame == live.first_frame]
        assert len(stored) == 1
        gru = RecurrentRegressor.initialize(8, np.random.default_rng(3))
        for predictor in (HistoricalAveragePredictor(), gru):
            assert predictor.predict(stored[0], line) == predictor.predict(live, line)


def _mixed_samples(area_map):
    """Several agents' samples, in build_labeled_dataset's order: pedestrians
    both ways and a vehicle on the area map's targets (one pedestrian with a
    3-frame gap, whose spanning windows are skipped), and an agent crossing
    its explicit target exactly at its last frame."""
    ltr = straight_trajectory("p0", -5.0, 2.0, 260)
    gappy = [o for o in straight_trajectory("p1", -3.0, 1.5, 300, y=0.5) if not 100 <= o.frame < 103]
    rtl = straight_trajectory("p2", 16.0, -1.8, 280, y=2.0, category=AgentCategory.KID)
    vehicle = [
        Observation(i, i / FPS, "v0", AgentCategory.VEHICLE_AREA_41, WorldPoint(2.75, 20.0 - i * 0.3))
        for i in range(90)
    ]
    tracks = [Track.from_observations(traj, area_map) for traj in (ltr, gappy, rtl, vehicle)]
    samples = build_labeled_dataset(tracks, {"p2": Awareness.NOTICED})
    edge = straight_trajectory("e0", 0.0, 1.0, 45, category=AgentCategory.CYCLIST)
    target = (1, vline(44 / FPS))
    return samples + build_labeled_dataset([track_with_targets(edge, [target])])


def _bits(s):
    """Every field of a sample, floats as their bit patterns."""
    w, line = s.window, s.line
    floats = (s.arrival_time, line.p0.x, line.p0.y, line.p1.x, line.p1.y, *line.normal)
    return (
        w.agent_id, w.category, w.first_frame, w.times.dtype.str, w.positions.dtype.str,
        w.times.shape, w.positions.shape, w.times.tobytes(), w.positions.tobytes(),
        s.category, s.q, tuple(float(v).hex() for v in floats), s.awareness,
    )


class TestAgentSamplesFile:
    def test_round_trip_is_bit_for_bit(self, area_map, tmp_path):
        samples = _mixed_samples(area_map)
        kinds = {(s.window.agent_id, s.category.is_pedestrian) for s in samples}
        assert {("p0", True), ("p2", True), ("v0", False)} <= kinds
        assert {s.q for s in samples if s.window.agent_id == "p0"} == {0, 1, 2}
        # the window ending at the last pre-crossing frame is stored
        assert max(s.window.first_frame for s in samples if s.window.agent_id == "e0") == 15
        # windows spanning p1's gap are skipped
        assert not any(
            s.window.agent_id == "p1" and 70 < s.window.first_frame < 103 for s in samples
        )
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(str(path), samples)
        back = read_samples_jsonl(str(path))
        assert [_bits(s) for s in back] == [_bits(s) for s in samples]
        assert not any(s.window.times.flags.writeable or s.window.positions.flags.writeable for s in back)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == '{"format": "crossrisk-samples", "version": 3}'
        assert len(lines) == 1 + 5  # one line per agent

    def test_same_bytes_on_rewrite(self, area_map, tmp_path):
        samples = _mixed_samples(area_map)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_samples_jsonl(str(first), samples)
        write_samples_jsonl(str(second), read_samples_jsonl(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_train_bundle_on_read_back_samples_saves_the_same_bytes(self, area_map, tmp_path):
        samples = _mixed_samples(area_map)
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(str(path), samples)
        config = TrainingConfig(seed=4, hidden_size=8, epochs=2, patience=1, batch_size=64)
        in_memory, read_back = tmp_path / "in_memory.json", tmp_path / "read_back.json"
        back = read_samples_jsonl(str(path))
        bundle, report = train_bundle(samples, config)
        assert report["i=0,q=2"]["samples"] >= 50  # GRU candidates were trained for this pair
        bundle.save(str(in_memory))
        train_bundle(back, config)[0].save(str(read_back))
        assert in_memory.read_bytes() == read_back.read_bytes()
        # the GRU candidates the bundle did not keep train to the same bits as well
        pair = [s for s in samples if (s.category, s.q) == (AgentCategory.ADULT, 2)]
        pair_back = [s for s in back if (s.category, s.q) == (AgentCategory.ADULT, 2)]
        fits = [
            train(RecurrentRegressor.initialize(8, np.random.default_rng(4)), p, config) for p in (pair, pair_back)
        ]
        assert fits[0][1] == fits[1][1]
        assert all(fits[0][0].params[k].tobytes() == fits[1][0].params[k].tobytes() for k in fits[0][0].params)

    @pytest.mark.parametrize("case", ["agents", "targets"])
    def test_interleaved_samples_are_rejected(self, case, area_map, tmp_path):
        samples = _mixed_samples(area_map)
        if case == "agents":
            p0 = [s for s in samples if s.window.agent_id == "p0"]
            bad = p0[:5] + [s for s in samples if s.window.agent_id == "v0"] + p0[5:]
        else:
            v0 = [s for s in samples if s.window.agent_id == "v0"]
            enter, leave = [s for s in v0 if s.q == 0], [s for s in v0 if s.q == 1]
            bad = enter[:3] + leave + enter[3:]
        path = tmp_path / "samples.jsonl"
        with pytest.raises(ValueError, match="contiguous"):
            write_samples_jsonl(str(path), bad)
        assert not path.exists()

    @pytest.mark.parametrize("case", ["shifted-time", "moved-point", "category", "awareness"])
    def test_conflicting_samples_are_rejected(self, case, area_map, tmp_path):
        samples = [s for s in _mixed_samples(area_map) if s.window.agent_id == "p0"]
        s = samples[7]
        w = s.window
        if case == "awareness":
            s = dataclasses.replace(s, awareness=Awareness.NOTICED)
        else:
            category, times, positions = w.category, w.times.copy(), w.positions.copy()
            if case == "shifted-time":
                times[3] = np.nextafter(times[3], np.inf)
            elif case == "moved-point":
                positions[-1, 1] += 1e-9
            else:
                category = AgentCategory.KID
            s = dataclasses.replace(
                s, window=SlidingWindowTrajectory(w.agent_id, category, w.first_frame, times, positions)
            )
        samples[7] = s
        path = tmp_path / "samples.jsonl"
        message = "disagree at a shared frame" if case.endswith(("time", "point")) else "category or awareness"
        with pytest.raises(ValueError, match=message):
            write_samples_jsonl(str(path), samples)
        assert not path.exists()
