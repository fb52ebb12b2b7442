from collections import deque

import numpy as np
import pytest

from crossrisk.errors import (
    CategoryChanged,
    DuplicateAgentInFrame,
    InsufficientHistory,
    NonIncreasingTime,
    OutOfOrderFrame,
    UnknownDirection,
)
from crossrisk.geometry import WorldPoint
from crossrisk.stream import (
    MAX_INTERPOLATED_GAP,
    WINDOW_SIZE,
    AgentCategory,
    Direction,
    Observation,
    PedestrianStatus,
    StreamEngine,
    Track,
    TrajectoryBuffer,
    _direction_of,
    agent_tracks,
    closer_further_assignment,
    read_frames,
    read_stream_csv,
    target_lines,
    window,
    write_stream_csv,
)

from helpers import track_with_targets

FPS = 30.0


def obs(frame, agent_id="a0", x=0.0, y=1.0, category=AgentCategory.ADULT):
    return Observation(frame, frame / FPS, agent_id, category, WorldPoint(x, y))


def walk(agent_id, x0, dx, n, first_frame=0, y=1.0, category=AgentCategory.ADULT):
    return [obs(first_frame + i, agent_id, x0 + i * dx, y, category) for i in range(n)]


class TestBuffer:
    def test_window_of_exact_size(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        for o in walk("a0", 0.0, 0.1, WINDOW_SIZE):
            buf.append(o)
        w = window(buf)
        assert w.times.shape == (WINDOW_SIZE,)
        assert w.positions.shape == (WINDOW_SIZE, 2)
        assert w.first_frame == 0
        assert (w.agent_id, w.category) == ("a0", AgentCategory.ADULT)

    def test_window_is_most_recent(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        for o in walk("a0", 0.0, 0.1, 45):
            buf.append(o)
        w = window(buf)
        # frames 15..44 (latest window start index per the window definition)
        assert w.first_frame == 15
        expected = walk("a0", 0.0, 0.1, 45)[15:]
        assert w.times.tolist() == [o.t for o in expected]
        assert w.positions.tolist() == [[o.position.x, o.position.y] for o in expected]

    def test_insufficient_history(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        for o in walk("a0", 0.0, 0.1, WINDOW_SIZE - 1):
            buf.append(o)
        with pytest.raises(InsufficientHistory):
            window(buf)

    def test_small_gap_interpolated(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        buf.append(obs(0, x=0.0))
        buf.append(obs(4, x=0.4))  # 3 missing frames
        assert len(buf) == 5
        xs = [o.position.x for o in buf.observations()]
        assert xs == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        frames = [o.frame for o in buf.observations()]
        assert frames == [0, 1, 2, 3, 4]

    def test_long_gap_resets(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        for o in walk("a0", 0.0, 0.1, 10):
            buf.append(o)
        buf.append(obs(17, x=5.0))  # 6 missing frames > limit of 5
        assert len(buf) == 1
        assert buf.last.frame == 17

    def test_backwards_frame_rejected(self):
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        buf.append(obs(5))
        with pytest.raises(OutOfOrderFrame):
            buf.append(obs(5))

    def test_window_last_equals_buffer_last(self):
        rng = np.random.default_rng(2)
        buf = TrajectoryBuffer("a0", AgentCategory.ADULT)
        frame = 0
        for _ in range(120):
            frame += int(rng.integers(1, 4))  # occasional reparable gaps
            buf.append(obs(frame, x=frame * 0.05))
            if len(buf) >= WINDOW_SIZE:
                w = window(buf)
                assert w.first_frame + WINDOW_SIZE - 1 == buf.last.frame
                assert w.times[-1] == buf.last.t
                assert w.end_position == buf.last.position


class DequeBuffer:
    """Reference buffer: the last WINDOW_SIZE points as Observations in a
    deque, gaps repaired with the same float expressions."""

    def __init__(self):
        self.ring = deque(maxlen=WINDOW_SIZE)

    def append(self, o):
        last = self.ring[-1] if self.ring else None
        if last is not None and o.frame - last.frame > MAX_INTERPOLATED_GAP + 1:
            self.ring.clear()
        elif last is not None:
            gap = o.frame - last.frame
            for step in range(1, gap):
                frac = step / gap
                self.ring.append(Observation(
                    last.frame + step, last.t + frac * (o.t - last.t), o.agent_id, o.category,
                    WorldPoint(last.position.x + frac * (o.position.x - last.position.x),
                               last.position.y + frac * (o.position.y - last.position.y)),
                ))
        self.ring.append(o)


class TestRingAgainstDeque:
    def _check(self, buf, ref):
        assert len(buf) == len(ref.ring)
        assert buf.observations() == tuple(ref.ring)
        assert buf.last == (ref.ring[-1] if ref.ring else None)
        if len(ref.ring) < WINDOW_SIZE:
            return
        w = window(buf)
        assert w.first_frame == ref.ring[0].frame
        times = np.array([o.t for o in ref.ring])
        positions = np.column_stack(([o.position.x for o in ref.ring], [o.position.y for o in ref.ring]))
        assert w.times.tobytes() == times.tobytes() and w.times.flags.c_contiguous
        assert w.positions.tobytes() == positions.tobytes() and w.positions.flags.c_contiguous

    def test_random_stream_with_gaps_resets_and_clears(self):
        rng = np.random.default_rng(11)
        buf, ref = TrajectoryBuffer("a0", AgentCategory.ADULT), DequeBuffer()
        frame, t, x, y = 0, 0.0, 0.0, 1.0
        seen = {"gap": 0, "reset": 0, "clear": 0, "wrapped": 0}
        for _ in range(2000):
            gap = int(rng.choice([1, 1, 1, 1, 2, 4, MAX_INTERPOLATED_GAP + 1, MAX_INTERPOLATED_GAP + 2, 9]))
            frame += gap
            t += gap / FPS * float(rng.uniform(0.9, 1.1))
            x += float(rng.normal(0.03, 0.05))
            y += float(rng.normal(0.0, 0.05))
            o = Observation(frame, t, "a0", AgentCategory.ADULT, WorldPoint(x, y))
            seen["gap"] += 1 < gap <= MAX_INTERPOLATED_GAP + 1 and len(buf) > 0
            seen["reset"] += gap > MAX_INTERPOLATED_GAP + 1 and len(buf) > 0
            buf.append(o)
            ref.append(o)
            seen["wrapped"] += len(buf) == WINDOW_SIZE
            self._check(buf, ref)
            if rng.uniform() < 0.01:  # an exit, then re-entry later
                buf.clear()
                ref.ring.clear()
                seen["clear"] += 1
                self._check(buf, ref)
        assert min(seen.values()) > 10

    def test_direction_reads_the_ring(self, area_map):
        """The engine's direction is _direction_of the net x displacement of
        the buffered points: the window's positions once it is full."""
        engine = StreamEngine(area_map)
        for i, o in enumerate(walk("a0", -5.0, 0.05, 80)):
            engine.ingest_frame(i, [o])
            if engine.window_ready("a0"):
                xs = engine.window("a0").positions[:, 0]
            else:
                xs = [p.position.x for p in engine.buffer("a0").observations()]
            assert engine.pedestrians["a0"].direction is _direction_of(xs[-1] - xs[0])


class TestDirection:
    """A track's direction: a pedestrian's net x displacement, with a dead band."""

    def test_positive_net_displacement(self, area_map):
        assert Track.from_observations(walk("a0", 0.0, 0.1, 31), area_map).direction is Direction.LEFT_TO_RIGHT

    def test_negative_net_displacement(self, area_map):
        assert Track.from_observations(walk("a0", 0.0, -0.1, 31), area_map).direction is Direction.RIGHT_TO_LEFT

    def test_dead_band(self, area_map):
        assert Track.from_observations(walk("a0", 0.0, 0.001, 31), area_map).direction is Direction.UNKNOWN

    def test_vehicle_direction_is_unknown(self, area_map):
        moving = walk("v0", 0.0, 0.1, 31, category=AgentCategory.VEHICLE_AREA_41)
        assert Track.from_observations(moving, area_map).direction is Direction.UNKNOWN

    def test_assignment(self):
        assert closer_further_assignment(Direction.LEFT_TO_RIGHT) == ("3.1", "3.2")
        assert closer_further_assignment(Direction.RIGHT_TO_LEFT) == ("3.2", "3.1")
        with pytest.raises(UnknownDirection):
            closer_further_assignment(Direction.UNKNOWN)


class TestTargetLines:
    @pytest.mark.parametrize("direction", [Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT])
    @pytest.mark.parametrize("category", list(AgentCategory))
    def test_lines_in_q_order(self, category, direction, area_map):
        from crossrisk.geometry import pedestrian_line_name, vehicle_line_name

        if category.is_pedestrian:
            names = [pedestrian_line_name(direction.value, q) for q in (0, 1, 2)]
        else:
            names = [vehicle_line_name(category.conflict_area, enter) for enter in (True, False)]
        lines = target_lines(area_map, category, direction)
        assert len(lines) == category.target_count
        assert all(line is area_map.line(name) for line, name in zip(lines, names, strict=True))

    def test_unknown_direction(self, area_map):
        with pytest.raises(UnknownDirection):
            target_lines(area_map, AgentCategory.KID, Direction.UNKNOWN)
        assert len(target_lines(area_map, AgentCategory.VEHICLE_AREA_42, Direction.UNKNOWN)) == 2

    def test_missing_line_names_it(self, area_map):
        from crossrisk.geometry import AreaMap

        lines = {k: v for k, v in area_map.target_lines.items() if k != "ped_rtl_q2"}
        partial = AreaMap(area_map.areas, lines)
        assert target_lines(partial, AgentCategory.ADULT, Direction.LEFT_TO_RIGHT)
        with pytest.raises(KeyError, match="ped_rtl_q2"):
            target_lines(partial, AgentCategory.ADULT, Direction.RIGHT_TO_LEFT)

    def test_crossing_times_are_first_crossings(self, area_map):
        """Walking right from x = -1 at 3 m/s: q0 (x = 0), q1 (5.5) and q2
        (11) are first crossed between samples, interpolated; walking back
        never reaches the right-to-left lines from their approach side."""
        observations = walk("a0", -1.0, 0.1, 150)
        track = Track.from_observations(observations, area_map)
        assert [line for _, line in track.targets] == list(
            target_lines(area_map, AgentCategory.ADULT, Direction.LEFT_TO_RIGHT)
        )
        assert track.crossings == pytest.approx([1.0 / 3.0, 6.5 / 3.0, 12.0 / 3.0], abs=1e-12)
        rtl = enumerate(target_lines(area_map, AgentCategory.ADULT, Direction.RIGHT_TO_LEFT))
        assert track_with_targets(observations, rtl).crossings == [None, None, None]


class TestLifecycle:
    def test_became_target_in_area_1(self, area_map):
        engine = StreamEngine(area_map)
        assert engine.ingest_frame(0, [obs(0, x=-9.0)]) is None
        state = engine.pedestrians["a0"]
        assert state.status is PedestrianStatus.TARGET
        assert state.current_area == "1.1"
        assert state.episode == 1

    def test_first_seen_inside_area_2_promotes(self, area_map):
        engine = StreamEngine(area_map)
        engine.ingest_frame(0, [obs(0, x=-1.0)])
        assert engine.pedestrians["a0"].status is PedestrianStatus.TARGET

    def test_exit_after_leaving_conflict_area(self, area_map):
        engine = StreamEngine(area_map)
        exit_frames = []
        # march from inside 3.2 out into 2.2
        frame = 0
        for x in np.arange(10.0, 11.6, 0.1):
            before = engine.pedestrians["a0"].status if "a0" in engine.pedestrians else None
            engine.ingest_frame(frame, [obs(frame, x=float(x))])
            state = engine.pedestrians["a0"]
            if state.status is PedestrianStatus.EXITED and before is not PedestrianStatus.EXITED:
                exit_frames.append(frame)
                assert state.current_area == "2.2"
                assert not engine.window_ready("a0")
            frame += 1
        assert len(exit_frames) == 1
        assert engine.pedestrians["a0"].status is PedestrianStatus.EXITED
        # trajectory was cleared at the exit: only post-exit points remain
        remaining = engine.buffer("a0").observations()
        assert all(o.frame > exit_frames[0] for o in remaining)

    def test_window_ready_on_thirtieth_point(self, area_map):
        engine = StreamEngine(area_map)
        ready = []
        for i in range(WINDOW_SIZE):
            engine.ingest_frame(i, [obs(i, x=-5.0 + 0.02 * i)])
            ready.append(engine.window_ready("a0"))
        assert ready == [False] * (WINDOW_SIZE - 1) + [True]
        assert engine.window("a0").first_frame == 0

    def test_no_window_ready_before_thirty(self, area_map):
        engine = StreamEngine(area_map)
        for i in range(WINDOW_SIZE - 1):
            engine.ingest_frame(i, [obs(i, x=-5.0 + 0.02 * i)])
            assert not engine.window_ready("a0")

    def test_duplicate_agent_rejected(self, area_map):
        engine = StreamEngine(area_map)
        with pytest.raises(DuplicateAgentInFrame):
            engine.ingest_frame(0, [obs(0), obs(0)])

    def test_category_change_rejected(self, area_map):
        engine = StreamEngine(area_map)
        vehicle = AgentCategory.VEHICLE_AREA_41
        for o in walk("a0", -5.0, 0.1, WINDOW_SIZE, category=vehicle):
            engine.ingest_frame(o.frame, [o])
        with pytest.raises(CategoryChanged):
            engine.ingest_frame(WINDOW_SIZE, [obs(WINDOW_SIZE, x=-2.0)])
        assert engine.buffer("a0").category is vehicle
        assert {o.category for o in engine.buffer("a0").observations()} == {vehicle}
        assert "a0" not in engine.pedestrians

    @pytest.mark.parametrize("t", [1 / FPS, 0.5 / FPS], ids=["repeated", "backward"])
    def test_non_increasing_time_rejected(self, area_map, t):
        engine = StreamEngine(area_map)
        for o in walk("a0", -5.0, 0.1, 2):
            engine.ingest_frame(o.frame, [o])
        late = Observation(2, t, "a0", AgentCategory.ADULT, WorldPoint(-4.8, 1.0))
        with pytest.raises(NonIncreasingTime, match="agent a0 is at t="):
            engine.ingest_frame(2, [obs(2, "b0", x=3.0), late])
        assert engine.last_frame == 1
        assert "b0" not in engine.buffers
        assert engine.buffer("a0").last.frame == 1

    def test_time_checked_across_episodes(self, area_map):
        """A buffer cleared at a pedestrian's exit still remembers its last time."""
        engine = StreamEngine(area_map)
        frame = 0
        for x in np.arange(10.0, 11.6, 0.1):
            engine.ingest_frame(frame, [obs(frame, x=float(x))])
            frame += 1
        assert engine.pedestrians["a0"].status is PedestrianStatus.EXITED
        engine.ingest_frame(frame, [])
        back_in_time = Observation(frame + 1, 0.0, "a0", AgentCategory.ADULT, WorldPoint(12.0, 1.0))
        with pytest.raises(NonIncreasingTime):
            engine.ingest_frame(frame + 1, [back_in_time])

    def test_out_of_order_frame_rejected(self, area_map):
        engine = StreamEngine(area_map)
        engine.ingest_frame(0, [obs(0)])
        with pytest.raises(OutOfOrderFrame):
            engine.ingest_frame(2, [obs(2)])

    def test_lifecycle_monotone_within_episode(self, area_map):
        """Across the crossing, through the far Area 2 and Area 1 and out of
        the map: one episode, which ends exited."""
        engine = StreamEngine(area_map)
        statuses = []
        frame = 0
        for x in np.arange(-5.0, 24.0, 0.08):
            engine.ingest_frame(frame, [obs(frame, x=float(x))])
            statuses.append(engine.pedestrians["a0"].status)
            frame += 1
        order = {PedestrianStatus.NON_TARGET: 0, PedestrianStatus.TARGET: 1, PedestrianStatus.EXITED: 2}
        ranks = [order[s] for s in statuses]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 2
        assert engine.pedestrians["a0"].episode == 1

    def test_replay_determinism(self, area_map):
        frames = [walk("a0", -5.0, 0.08, 1, first_frame=i)[0] for i in range(60)]
        runs = []
        for _ in range(2):
            engine = StreamEngine(area_map)
            states = []
            for i, o in enumerate(frames):
                engine.ingest_frame(i, [o])
                state = engine.pedestrians["a0"]
                states.append(
                    (state.status, state.current_area, state.direction, state.episode,
                     engine.window_ready("a0"))
                )
            runs.append(states)
        assert runs[0] == runs[1]


class TestZoneLookup:
    def test_one_lookup_per_observation(self, area_map, monkeypatch):
        """The per-frame chain locates each observation once, at ingest, in
        one lookup per frame; a vehicle that stops being observed keeps its
        buffer and stored area and stays a conflict candidate."""
        import crossrisk.stream as stream_module
        from crossrisk.pipeline import RiskPipeline
        from crossrisk.risk import RiskThresholdConfig

        calls = []
        real = stream_module.locate_areas

        def counting(amap, xs, ys):
            calls.extend(zip(xs, ys))
            return real(amap, xs, ys)

        monkeypatch.setattr(stream_module, "locate_areas", counting)
        pipeline = RiskPipeline(area_map, RiskThresholdConfig.default())
        vehicle = AgentCategory.VEHICLE_AREA_41
        ingested = 0
        for frame in range(60):
            observations = [obs(frame, "p0", x=-3.0 + 0.05 * frame)]
            if frame < 35:  # the vehicle approaches through 4.1, then is lost
                observations.append(obs(frame, "v0", x=2.75, y=8.0 - 0.1 * frame, category=vehicle))
            pipeline.process_frame(frame, observations)
            ingested += len(observations)

        assert len(calls) == ingested
        engine = pipeline.engine
        last = engine.buffer("v0").last
        assert last.frame == 34
        assert engine.buffer("v0").area == "4.1"
        assert engine.agents_in_areas([vehicle], ("3.", "4.")) == [("v0", last.position)]
        closer = [r for r in pipeline.result.trace if r.area.value == "closer"]
        assert closer and {r.veh_id for r in closer if r.frame >= 35} == {"v0"}
        assert len(calls) == ingested  # snapshot queries located nothing


class TestAgentTrajectories:
    """agent_tracks: each agent's trajectory of a stream as its Track."""

    def test_groups_by_agent_in_frame_order(self, area_map):
        a, b = walk("a0", 0.0, 0.1, 3), walk("b0", 5.0, -0.1, 2, first_frame=1)
        frames = {0: [a[0]], 1: [b[0], a[1]], 2: [a[2], b[1]]}
        tracks = agent_tracks(frames.items(), area_map)
        assert [t.agent_id for t in tracks] == ["a0", "b0"]
        for track, observations in zip(tracks, (a, b)):
            assert track.category is AgentCategory.ADULT
            assert track.frames.tolist() == [o.frame for o in observations]
            assert track.times.tolist() == [o.t for o in observations]
            assert track.positions.tolist() == [[o.position.x, o.position.y] for o in observations]
            assert not (track.frames.flags.writeable or track.times.flags.writeable or track.positions.flags.writeable)

    @pytest.mark.parametrize(
        "late, error",
        [
            (Observation(2, 2 / FPS, "a0", AgentCategory.KID, WorldPoint(0.2, 1.0)), CategoryChanged),
            (Observation(2, 1 / FPS, "a0", AgentCategory.ADULT, WorldPoint(0.2, 1.0)), NonIncreasingTime),
        ],
        ids=["category", "time"],
    )
    def test_rejects_what_the_engine_rejects(self, late, error, area_map):
        first = walk("a0", 0.0, 0.1, 2)
        with pytest.raises(error):
            agent_tracks({0: [first[0]], 1: [first[1]], 2: [late]}.items(), area_map)


class TestStreamCsv(object):
    def test_round_trip_world(self, tmp_path):
        frames = [walk("a0", -5.0, 0.1, 5), walk("b1", 2.0, -0.1, 5, category=AgentCategory.KID)]
        per_frame = {}
        for traj in frames:
            for o in traj:
                per_frame.setdefault(o.frame, []).append(o)
        path = tmp_path / "stream.csv"
        write_stream_csv(str(path), [per_frame[k] for k in sorted(per_frame)])
        back = read_stream_csv(str(path))
        assert sorted(back) == sorted(per_frame)
        for k in per_frame:
            assert back[k] == per_frame[k]

    def test_pixel_variant_transforms(self, tmp_path, tile_grid):
        from crossrisk.geometry import save_tile_grid
        from crossrisk.synthgen import camera_pixel_of

        world = WorldPoint(3.0, 1.0)
        pixel = camera_pixel_of(world)
        path = tmp_path / "pixels.csv"
        path.write_text(
            "frame,t,id,category,u,v\n"
            f"0,0.0,a0,0,{pixel.u!r},{pixel.v!r}\n"
            f"3,0.1,a0,0,{pixel.u!r},{pixel.v!r}\n",
            encoding="utf-8",
        )
        grid_path = tmp_path / "grid.json"
        save_tile_grid(str(grid_path), tile_grid)
        frames, transform_ms = read_frames(str(path), str(grid_path))
        back = dict(frames)
        assert sorted(back) == [0, 3]
        got = back[0][0].position
        assert abs(got.x - world.x) < 1e-6
        assert abs(got.y - world.y) < 1e-6
        # one time per frame read, none for the empty frames between
        assert len(transform_ms) == 2
