import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from crossrisk.errors import MissingPredictor, NonFiniteParameters
from crossrisk.pipeline import (
    RiskPipeline,
    latency_report,
    read_trace_csv,
    write_risk_scenarios,
    write_trace_csv,
)
from crossrisk.ppet import PPetVector, ppet
from crossrisk.predictors import InferenceView, RecurrentRegressor, TrainedModelBundle
from crossrisk.risk import AreaRole, RiskLevel, RiskThresholdConfig, ThresholdMode, classify_offline
from crossrisk.synthgen import ScenarioSpec, generate, reference_area_map


def constant_gru(value, hidden=4):
    """A zero-weight GRU: its state stays 0, so it outputs softplus(b_out) = value."""
    model = RecurrentRegressor.zeros(hidden)
    model.params["b_out"][0] = math.log(math.expm1(value))
    return model


def drive_vehicles(pipeline, lanes, frames=30):
    """Feed the pipeline's engine `frames` frames of vehicles driving south
    at 5 m/s, each given as id -> (category, x, y at the last frame, points
    observed); returns id -> (id, last position), the conflict-vehicle form
    that _frame_estimates takes."""
    from crossrisk.geometry import WorldPoint
    from crossrisk.stream import Observation

    last = {}
    for frame in range(frames):
        t = frame / 30.0
        observations = []
        for veh_id, (category, x, y_end, points) in lanes.items():
            if frame >= frames - points:
                position = WorldPoint(x, y_end + 5.0 * (frames - 1 - frame) / 30.0)
                observations.append(Observation(frame, t, veh_id, category, position))
                last[veh_id] = (veh_id, position)
        pipeline.engine.ingest_frame(frame, observations)
    return last


def _further_vehicle(pipeline):
    """A vehicle 7 m before the 3.2 enter line, the further conflict area of
    a left-to-right pedestrian, as the pedestrian's conflict vehicles."""
    from crossrisk.stream import AgentCategory

    (vehicle,) = drive_vehicles(pipeline, {"v0": (AgentCategory.VEHICLE_AREA_42, 8.25, 10.0, 30)}).values()
    return {AreaRole.FURTHER: vehicle}


def flat(est):
    """A frame estimate's seven times: pedestrian q0-q2, then each area's
    vehicle (enter, leave)."""
    ped, vehicles = est
    return [*ped, *(t for pair in vehicles for t in pair)]


def _ordered_frame_estimate(predictor_for_q):
    """The pedestrian times of the frame estimate of one pedestrian walking
    at 2 m/s, 5.57 m before the q1 line, whose pairs' predictors are
    predictor_for_q(q); a further conflict vehicle makes its components read
    all three of its lines."""
    from crossrisk.predictors.bundle import ALL_PAIRS
    from crossrisk.stream import Direction
    from conftest import constant_velocity_window

    bundle = TrainedModelBundle(predictors={pair: predictor_for_q(pair[1]) for pair in ALL_PAIRS})
    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
    window = constant_velocity_window((-2.0, 1.0), (2.0, 0.0))
    ((ped, _),) = pipeline._frame_estimates([(window, Direction.LEFT_TO_RIGHT, _further_vehicle(pipeline))])
    return ped


@pytest.fixture(scope="module")
def scenario():
    spec = ScenarioSpec(seed=11, duration_s=90, n_adults=8, n_kids=3, n_cyclists=3)
    return generate(spec)


@pytest.fixture(scope="module")
def run(scenario):
    frames, truth = scenario
    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
    result = pipeline.run(frames)
    return pipeline, result, truth


class TestPipeline:
    def test_emits_scenarios_on_conflict_corpus(self, run):
        _, result, _ = run
        assert len(result.risk_scenarios) > 0
        # idempotent flagging: at most one scenario per (pedestrian, area)
        keys = [(s.ped_id, s.area) for s in result.risk_scenarios]
        assert len(keys) == len(set(keys))

    def test_streaming_flags_equal_batch_classification(self, run, scenario):
        _, result, truth = run
        config = RiskThresholdConfig.default()
        flagged_by_scenario = {}
        for s in result.risk_scenarios:
            flagged_by_scenario.setdefault(s.ped_id, set()).add(s.area)
        for ped_id, vectors in result.vectors_by_ped.items():
            category = truth.agents[ped_id].category
            batch = classify_offline(vectors, category, config)
            merged = config.for_category(category).mode is ThresholdMode.MERGED_AREA
            if merged:
                streaming_flagged = ped_id in flagged_by_scenario
                batch_flagged = batch[AreaRole.CLOSER] is RiskLevel.RISK2
                assert streaming_flagged == batch_flagged, ped_id
            else:
                for role in (AreaRole.CLOSER, AreaRole.FURTHER):
                    streaming_flagged = role in flagged_by_scenario.get(ped_id, set())
                    batch_flagged = batch[role] is RiskLevel.RISK2
                    assert streaming_flagged == batch_flagged, (ped_id, role)

    def test_no_vehicles_no_risk2(self):
        spec = ScenarioSpec(
            seed=13, duration_s=60, n_adults=5, n_kids=2, n_cyclists=2,
            vehicle_rate_per_min=0.0, conflict_probability=0.0,
        )
        frames, _ = generate(spec)
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
        result = pipeline.run(frames)
        assert result.risk_scenarios == []
        # with no conflict vehicles every component stays unavailable
        assert all(v == PPetVector() for vectors in result.vectors_by_ped.values() for v in vectors)

    def test_deterministic_rerun(self, scenario):
        frames, _ = scenario
        outputs = []
        for _ in range(2):
            pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
            result = pipeline.run(frames)
            outputs.append(
                (
                    [s.to_dict() for s in result.risk_scenarios],
                    [(r.frame, r.ped_id, r.veh_id, r.area.value, r.pf, r.vf) for r in result.trace],
                )
            )
        assert outputs[0] == outputs[1]

    def test_latency_measured_per_frame(self, run, scenario):
        frames, _ = scenario
        _, result, _ = run
        n_frames = max(frames) - min(frames) + 1
        assert len(result.prediction_ms) == n_frames
        assert len(result.ppet_risk_ms) == n_frames
        report = latency_report(result.prediction_ms, result.ppet_risk_ms)
        assert report["safety_evaluation_mean_ms"] == pytest.approx(
            report["prediction_ms"]["mean"] + report["ppet_risk_ms"]["mean"]
        )
        assert report["frames"] == n_frames

    def test_ingest_timed_once_per_frame(self, run, scenario):
        """Every frame's ingest is timed, and the latency report gives its
        mean and standard deviation next to the transform's."""
        frames, _ = scenario
        _, result, _ = run
        assert len(result.ingest_ms) == max(frames) - min(frames) + 1
        assert all(ms >= 0.0 for ms in result.ingest_ms)
        report = latency_report(result.prediction_ms, result.ppet_risk_ms, ingest_ms=result.ingest_ms)
        assert report["ingest_ms"] == {
            "mean": pytest.approx(float(np.mean(result.ingest_ms))),
            "std": pytest.approx(float(np.std(result.ingest_ms))),
        }
        assert latency_report([], [])["ingest_ms"] == {"mean": 0.0, "std": 0.0}

    def test_latency_report_tail_of_per_frame_safety_evaluation(self):
        prediction = [float(i) for i in range(1, 101)]
        ppet_risk = [0.5] * 100
        report = latency_report(prediction, ppet_risk)
        assert report["safety_evaluation_mean_ms"] == pytest.approx(51.0)
        assert report["safety_evaluation_p50_ms"] == pytest.approx(51.0)
        assert report["safety_evaluation_p99_ms"] == pytest.approx(99.5 + 0.01)
        assert report["safety_evaluation_max_ms"] == 100.5
        empty = latency_report([], [])
        tail = [empty[f"safety_evaluation_{q}_ms"] for q in ("p50", "p99", "max")]
        assert tail == [0.0, 0.0, 0.0]

    def test_missing_predictor_raises(self, scenario):
        frames, _ = scenario
        empty_bundle = TrainedModelBundle(predictors={})
        with pytest.raises(MissingPredictor):
            pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), empty_bundle)
            pipeline.run(frames)

    def test_bundle_is_checked_for_every_pair_at_construction(self):
        """A pair that no frame may ever ask for (a kid's q2) still fails
        the construction, by name: missing, or held by a non-predictor."""
        from crossrisk.stream import AgentCategory

        bundle = TrainedModelBundle.historical_average()
        del bundle.predictors[(AgentCategory.KID, 2)]
        with pytest.raises(MissingPredictor, match=r"\(i=1, q=2\)"):
            RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
        bundle.predictors[(AgentCategory.KID, 2)] = object()
        with pytest.raises(TypeError, match=r"\(i=1, q=2\)"):
            RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)

    def test_non_monotone_predictions_are_ordered(self):
        """Out-of-order per-line estimates from different passes (a GRU
        answers 5 s for q0 and 4 s for q2, the baseline about 2.8 s for q1)
        must still produce a physically ordered estimate set."""
        from crossrisk.predictors import HistoricalAveragePredictor

        ped = _ordered_frame_estimate(
            lambda q: HistoricalAveragePredictor() if q == 1 else constant_gru(5.0 if q == 0 else 4.0)
        )
        assert ped[0] == pytest.approx(5.0, rel=1e-12)
        assert ped == [ped[0]] * 3

    def test_non_monotone_stacked_predictions_are_ordered(self):
        """The same for GRU estimates alone, 5, 3 and 4 s for q0, q1 and q2,
        which arrive after the frame's stacked pass."""
        ped = _ordered_frame_estimate(lambda q: constant_gru({0: 5.0, 1: 3.0, 2: 4.0}[q]))
        assert ped[0] == pytest.approx(5.0, rel=1e-12)
        assert ped == [ped[0]] * 3

    def test_run_fills_frame_gaps(self):
        """run processes the contiguous frame range, empty frames included."""
        from crossrisk.geometry import WorldPoint
        from crossrisk.stream import AgentCategory, Observation

        processed = []

        class Recording(RiskPipeline):
            def process_frame(self, frame, observations):
                processed.append((frame, list(observations)))
                return super().process_frame(frame, observations)

        def seen(frame):
            return [Observation(frame, frame / 30.0, "a0", AgentCategory.ADULT, WorldPoint(-3.0, 1.0))]

        pipeline = Recording(reference_area_map(), RiskThresholdConfig.default())
        pipeline.run({3: seen(3), 6: seen(6)})
        assert [f for f, _ in processed] == [3, 4, 5, 6]
        assert processed[1][1] == [] and processed[2][1] == []
        assert len(pipeline.result.prediction_ms) == 4


class TestTraceFiles:
    def test_trace_round_trip(self, tmp_path, run):
        _, result, _ = run
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), result.trace)
        back = read_trace_csv(str(path))
        assert set(back) == set(result.vectors_by_ped)
        for ped_id, vectors in result.vectors_by_ped.items():
            assert back[ped_id] == vectors

    def test_scenarios_jsonl(self, tmp_path, run):
        import json

        _, result, _ = run
        path = tmp_path / "scenarios.jsonl"
        write_risk_scenarios(str(path), result.risk_scenarios)
        lines = path.read_text().strip().splitlines() if result.risk_scenarios else []
        assert len(lines) == len(result.risk_scenarios)
        for line, scenario_obj in zip(lines, result.risk_scenarios):
            doc = json.loads(line)
            assert doc == scenario_obj.to_dict()


# --- one frame's predictions answered together ------------------------------------


@pytest.fixture(scope="module")
def busy_scenario():
    """Conflict-heavy stream: most evaluated frames have several pedestrians
    or a pedestrian and its conflict vehicles."""
    spec = ScenarioSpec(
        seed=5, duration_s=30, n_adults=3, n_kids=1, n_cyclists=1,
        conflict_probability=1.0, vehicle_rate_per_min=6.0,
    )
    return generate(spec)[0]


def _gru_bundle(hidden_for, seed=0):
    """A random-weight GRU of hidden size hidden_for(pair) for every pair,
    or the baseline where that is None."""
    from crossrisk.predictors import HistoricalAveragePredictor
    from crossrisk.predictors.bundle import ALL_PAIRS

    rng = np.random.default_rng(seed)
    predictors = {}
    for pair in ALL_PAIRS:
        hidden = hidden_for(pair)
        if hidden is None:
            predictors[pair] = HistoricalAveragePredictor()
            continue
        model = RecurrentRegressor.initialize(hidden, rng)
        model.set_normalization(rng.normal(0.0, 0.1, 3), rng.uniform(0.05, 1.0, 3))
        predictors[pair] = model
    return TrainedModelBundle(predictors)


def one_window_estimates(pipeline, window, direction, vehicles):
    """The estimates of one pedestrian with every line asked, one predict
    call per (window, line), in the order of flat's seven times;
    which of its conflict vehicles a frame asks; and how many of its
    pedestrian lines the P-PET components read: two with an asked closer
    vehicle only, three with an asked further one, else none. A vehicle is
    asked when its window is ready, one of its lines is ahead of it and one
    of the pedestrian lines that its area's components read (q0 or q1 for
    the closer area, q1 or q2 for the further one) is ahead of the
    pedestrian."""
    from crossrisk.errors import PredictionError
    from crossrisk.geometry import pedestrian_line_name, signed_distance_to_line, vehicle_line_name
    from crossrisk.stream import closer_further_assignment

    lines = pipeline.area_map.line

    def predict(w, q, line):
        if signed_distance_to_line(w.end_position, line) < 0.0:
            return None
        try:
            return pipeline.bundle.predictor_for(w.category, q).predict(w, line)
        except PredictionError:
            return None

    ped_lines = [lines(pedestrian_line_name(direction.value, q)) for q in (0, 1, 2)]
    ped_ahead = [signed_distance_to_line(window.end_position, line) >= 0.0 for line in ped_lines]
    ped = [predict(window, q, line) for q, line in enumerate(ped_lines)]
    for i in (1, 2):
        if ped[i] is not None:
            earlier = [v for v in ped[:i] if v is not None]
            if earlier and ped[i] < earlier[-1]:
                ped[i] = earlier[-1]
    veh, asked, read = [], [], 0
    roles = zip((AreaRole.CLOSER, AreaRole.FURTHER), closer_further_assignment(direction), ((0, 1), (1, 2)))
    for role, area_id, reads in roles:
        veh_id = vehicles.get(role, (None,))[0]
        if veh_id is None or not pipeline.engine.window_ready(veh_id):
            veh += [None, None]
            continue
        w = pipeline.engine.window(veh_id)
        veh_lines = [lines(vehicle_line_name(area_id, enter)) for enter in (True, False)]
        wanted = any(ped_ahead[q] for q in reads)
        if wanted and any(signed_distance_to_line(w.end_position, line) >= 0.0 for line in veh_lines):
            read = 2 if role is AreaRole.CLOSER else 3
            asked.append(role)
        veh += [predict(w, q, line) for q, line in enumerate(veh_lines)]
    return ped + veh, asked, read


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def _mixed_hidden(pair):
    return (None, 6, 11)[(int(pair[0]) + pair[1]) % 3]


class AllLinesPipeline(RiskPipeline):
    """Asks all three lines of every target pedestrian, whether or not a
    P-PET component reads them: the request rule's reference."""

    def _frame_estimates(self, targets):
        from crossrisk.errors import PredictionError
        from crossrisk.geometry import pedestrian_line_name, signed_distance_to_line, vehicle_line_name
        from crossrisk.pipeline import _ordered
        from crossrisk.stream import closer_further_assignment

        table, requests = {}, []

        def ask(window, q, name):
            key = (window.agent_id, name)
            line = self.area_map.line(name)
            behind = signed_distance_to_line(window.end_position, line) < 0.0
            table[key] = None if behind else len(requests)
            if not behind:
                requests.append((q, window, line))
            return key

        rows = []
        for window, direction, vehicles in targets:
            row = [ask(window, q, pedestrian_line_name(direction.value, q)) for q in (0, 1, 2)]
            for role, area_id in zip((AreaRole.CLOSER, AreaRole.FURTHER), closer_further_assignment(direction)):
                veh_id = vehicles[role][0] if role in vehicles else None
                keys = [(veh_id, vehicle_line_name(area_id, enter)) for enter in (True, False)]
                if veh_id is not None and keys[0] not in table and self.engine.window_ready(veh_id):
                    veh_window = self.engine.window(veh_id)
                    for q, (_, name) in enumerate(keys):
                        ask(veh_window, q, name)
                row += keys
            rows.append(row)
        answers = self.view.arrival_times(requests)

        def seconds(key):
            i = table.get(key)
            value = None if i is None else answers[i]
            return None if isinstance(value, PredictionError) else value

        return [
            (_ordered([seconds(k) for k in row[:3]]), [tuple(map(seconds, row[i:i + 2])) for i in (3, 5)])
            for row in rows
        ]


def _spy_frames(pipeline, check):
    """Wrap the pipeline's frame helper so check(targets, estimates) sees
    every frame with at least one target."""
    helper = pipeline._frame_estimates

    def spy(targets):
        estimates = helper(targets)
        if targets:
            check(targets, estimates)
        return estimates

    pipeline._frame_estimates = spy


class TestBatchedFrame:
    def test_estimates_equal_one_window_predictions(self, busy_scenario):
        """GRU pairs of two hidden sizes and baseline pairs mixed in one
        bundle: every estimate a P-PET component reads equals its one-window
        predict call, exactly, the pedestrian lines no component reads and
        the lines of a conflict vehicle whose area reads no pedestrian line
        ahead are None, and each P-PET vector has the bits of the all-lines
        one."""
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), _gru_bundle(_mixed_hidden))
        seen = {"frames": 0, "values": 0, "shared": 0, "unread": 0, "dropped": 0}

        def check(targets, estimates):
            seen["frames"] += 1
            seen["shared"] += len(targets) > 1 or any(v for _, _, v in targets)
            for (window, direction, vehicles), est in zip(targets, estimates):
                every_line, asked, read = one_window_estimates(pipeline, window, direction, vehicles)
                expect = every_line[:read] + [None] * (3 - read)
                for role, values in zip((AreaRole.CLOSER, AreaRole.FURTHER), (every_line[3:5], every_line[5:])):
                    expect += values if role in asked else [None, None]
                    seen["dropped"] += role not in asked and any(v is not None for v in values)
                seen["unread"] += read < 3 and any(v is not None for v in every_line[read:3])
                got = flat(est)
                assert [v is None for v in got] == [v is None for v in expect]
                for g, e in zip(got, expect):
                    if e is not None:
                        seen["values"] += 1
                        assert g == e
                all_lines = (every_line[:3], [tuple(every_line[3:5]), tuple(every_line[5:])])
                assert _bits(ppet(*est)) == _bits(ppet(*all_lines))

        _spy_frames(pipeline, check)
        frame = min(busy_scenario)
        while seen["frames"] < 300:
            pipeline.process_frame(frame, busy_scenario.get(frame, []))
            frame += 1
        assert seen["shared"] > 150 and seen["values"] > 1000 and seen["unread"] > 0 and seen["dropped"] > 0

    def test_run_equals_asking_every_line(self, busy_scenario):
        """The whole busy run with a mixed GRU/baseline bundle gives the
        trace and flags of a pipeline that asks every pedestrian line."""
        bundle = _gru_bundle(_mixed_hidden)
        results = [
            cls(reference_area_map(), RiskThresholdConfig.default(), bundle).run(busy_scenario)
            for cls in (RiskPipeline, AllLinesPipeline)
        ]
        traces = [[(*astuple(r)[:4], *_bits((r.pf, r.vf))) for r in result.trace] for result in results]
        assert traces[0] == traces[1]
        assert any(r.pf is not None or r.vf is not None for r in results[0].trace)
        flags = [[s.to_dict() for s in result.risk_scenarios] for result in results]
        assert flags[0] == flags[1] and flags[0]

    def test_baseline_frame_makes_one_stacked_pass(self, busy_scenario, monkeypatch):
        """With the default bundle a frame answers all its requests in one
        stacked_arrival_times pass and makes no one-window predict call."""
        import crossrisk.predictors.bundle as bundle_module
        from crossrisk.predictors import HistoricalAveragePredictor

        def no_single_window_calls(*args, **kwargs):
            raise AssertionError("the frame loop made a one-window baseline call")

        monkeypatch.setattr(HistoricalAveragePredictor, "predict", no_single_window_calls)
        passes = []
        stacked = bundle_module.stacked_arrival_times

        def counting(requests):
            passes[-1].append(len(requests))
            return stacked(requests)

        monkeypatch.setattr(bundle_module, "stacked_arrival_times", counting)
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
        for frame in range(min(busy_scenario), max(busy_scenario) + 1):
            passes.append([])
            pipeline.process_frame(frame, busy_scenario.get(frame, []))
        assert max(len(p) for p in passes) == 1
        assert max(n for p in passes for n in p) >= 7  # two pedestrians' lines, or one's and a vehicle's
        assert pipeline.result.trace

    def test_failing_baseline_request_yields_none(self):
        """A standing pedestrian with a further conflict vehicle, so that all
        its lines are read: its baseline pair fails with ZeroDisplacement and
        gives None, while its GRU pairs answer."""
        from crossrisk.errors import ZeroDisplacement
        from crossrisk.predictors import HistoricalAveragePredictor
        from crossrisk.predictors.bundle import ALL_PAIRS
        from crossrisk.stream import Direction
        from conftest import make_window

        predictors = {pair: constant_gru(2.0 + pair[1]) for pair in ALL_PAIRS}
        window = make_window(np.tile([-2.0, 1.0], (30, 1)))
        predictors[(window.category, 1)] = HistoricalAveragePredictor()
        bundle = TrainedModelBundle(predictors)
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
        line = pipeline.area_map.line("ped_ltr_q1")
        (failure,) = pipeline.view.arrival_times([(1, window, line)])
        assert isinstance(failure, ZeroDisplacement)
        vehicles = _further_vehicle(pipeline)
        ((ped, _),) = pipeline._frame_estimates([(window, Direction.LEFT_TO_RIGHT, vehicles)])
        assert ped[1] is None
        assert ped[0] == pytest.approx(2.0, rel=1e-12)
        assert ped[2] == pytest.approx(4.0, rel=1e-12)

    def test_gru_only_frame_makes_one_stacked_pass_per_hidden_size(self, busy_scenario, monkeypatch):
        """Pedestrian pairs hidden 5, vehicle pairs hidden 9: a frame makes at
        most one GruStack pass per hidden size, and no one-window GRU call
        at all."""
        from crossrisk.predictors.recurrent import GruStack

        def no_single_window_calls(*args, **kwargs):
            raise AssertionError("the frame loop made a one-window GRU call")

        monkeypatch.setattr(RecurrentRegressor, "predict", no_single_window_calls)
        monkeypatch.setattr(RecurrentRegressor, "forward_batch", no_single_window_calls)
        passes = []
        stacked = GruStack.predict

        def counting(stack, rows, features):
            passes[-1].append((stack.hidden_size, len(rows)))
            return stacked(stack, rows, features)

        monkeypatch.setattr(GruStack, "predict", counting)

        def hidden_for(pair):
            return 9 if pair[0].conflict_area is not None else 5

        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), _gru_bundle(hidden_for))
        for frame in range(min(busy_scenario), max(busy_scenario) + 1):
            passes.append([])
            pipeline.process_frame(frame, busy_scenario.get(frame, []))
        sizes = [[h for h, _ in frame] for frame in passes]
        assert all(len(s) == len(set(s)) for s in sizes)
        assert any(len(s) == 2 for s in sizes)
        # two pedestrians' three lines each in one pass
        assert max(g for frame in passes for _, g in frame) >= 6
        assert pipeline.result.trace

    def test_bundle_holding_another_predictor_raises_type_error(self):
        """A view answers only with the baseline and the GRU; anything else
        raises TypeError naming its pair when the view is built."""
        from crossrisk.predictors.bundle import ALL_PAIRS
        from crossrisk.stream import AgentCategory
        from conftest import constant_velocity_window

        predictors = {pair: constant_gru(2.0) for pair in ALL_PAIRS}
        window = constant_velocity_window((-2.0, 1.0), (2.0, 0.0))
        line = reference_area_map().line("ped_ltr_q2")
        view = InferenceView(TrainedModelBundle(predictors))
        assert view.arrival_times([(1, window, line)]) == [pytest.approx(2.0, rel=1e-12)]
        predictors[(AgentCategory.ADULT, 2)] = object()
        with pytest.raises(TypeError, match=r"\(i=0, q=2\)"):
            InferenceView(TrainedModelBundle(predictors))

    def test_weights_are_stacked_and_checked_once_per_hidden_size(self, busy_scenario, monkeypatch):
        """Pedestrian pairs hidden 5, vehicle pairs hidden 9: building the
        pipeline stacks each size's weights and checks them once, and 200
        frames of GRU passes neither stack nor check again."""
        import crossrisk.predictors.bundle as bundle_module
        from crossrisk.predictors import recurrent

        stacks, checks = [], []
        check_finite = recurrent._check_finite

        class CountingStack(recurrent.GruStack):
            def __init__(self, models):
                stacks.append(models[0].hidden_size)
                super().__init__(models)

        def counting_check(params):
            checks.append(params["w_hz"].shape[-1])
            check_finite(params)

        monkeypatch.setattr(bundle_module, "GruStack", CountingStack)
        monkeypatch.setattr(recurrent, "_check_finite", counting_check)
        passes = []
        stacked = recurrent.GruStack.predict

        def counting_pass(stack, rows, features):
            passes.append(len(rows))
            return stacked(stack, rows, features)

        monkeypatch.setattr(recurrent.GruStack, "predict", counting_pass)
        bundle = _gru_bundle(lambda pair: 9 if pair[0].conflict_area is not None else 5)
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
        assert sorted(stacks) == sorted(checks) == [5, 9]
        first = min(busy_scenario)
        for frame in range(first, first + 200):
            pipeline.process_frame(frame, busy_scenario.get(frame, []))
        assert sorted(stacks) == sorted(checks) == [5, 9]
        assert passes and pipeline.result.trace

    def test_non_finite_weight_fails_construction(self):
        """A NaN weight in an in-memory bundle, here in a kid's q2 model,
        raises NonFiniteParameters when the pipeline is built, before any
        frame asks for it."""
        from crossrisk.stream import AgentCategory

        bundle = _gru_bundle(lambda pair: 6)
        bundle.predictors[(AgentCategory.KID, 2)].params["w_hc"][1, 2] = np.nan
        with pytest.raises(NonFiniteParameters):
            RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)


# --- which lines a frame asks ------------------------------------------------------


def _asked_lines(targets_for, start_x=-2.0):
    """The (agent id, line name) counts of the requests the bundle receives
    for one frame, and the frame's estimates. The frame has left-to-right
    pedestrians a0, a1, ... walking at 2 m/s from x = start_x, start_x - 1,
    ... with the conflict vehicles that targets_for(vehicles) lists for each,
    then b0 with none. The engine holds
    v_closer and v_further 7 m before their areas' enter lines, v_past
    beyond both lines of area 3.1 and v_new, of 5 points only, before them."""
    from crossrisk.stream import AgentCategory, Direction
    from conftest import constant_velocity_window

    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
    vehicles = drive_vehicles(pipeline, {
        "v_closer": (AgentCategory.VEHICLE_AREA_41, 2.75, 10.0, 30),
        "v_further": (AgentCategory.VEHICLE_AREA_42, 8.25, 10.0, 30),
        "v_past": (AgentCategory.VEHICLE_AREA_41, 2.75, -4.0, 30),
        "v_new": (AgentCategory.VEHICLE_AREA_41, 2.75, 10.0, 5),
    })
    names = {id(line): name for name, line in pipeline.area_map.target_lines.items()}
    asked = Counter()
    answer = pipeline.view.arrival_times

    def spy(requests):
        asked.update((window.agent_id, names[id(line)]) for _, window, line in requests)
        return answer(requests)

    pipeline.view.arrival_times = spy
    ltr = Direction.LEFT_TO_RIGHT
    targets = [
        (constant_velocity_window((start_x - k, 1.0), (2.0, 0.0), agent_id=f"a{k}"), ltr, own)
        for k, own in enumerate(targets_for(vehicles))
    ]
    targets.append((constant_velocity_window((-3.0, 0.5), (1.5, 0.0), agent_id="b0"), ltr, {}))
    estimates = pipeline._frame_estimates(targets)
    return asked, estimates


def ped_lines(agent_id="a0"):
    return [(agent_id, f"ped_ltr_q{q}") for q in (0, 1, 2)]


# the lines ahead of each vehicle; v_past has none and v_new no window
VEH_LINES = {
    veh_id: [(veh_id, f"veh_{area}_{end}") for end in ("enter", "leave")]
    for veh_id, area in (("v_closer", "3.1"), ("v_further", "3.2"))
}


class TestRequestRule:
    @pytest.mark.parametrize("roles", [
        {},
        {AreaRole.CLOSER: "v_past"},
        {AreaRole.CLOSER: "v_new"},
        {AreaRole.CLOSER: "v_past", AreaRole.FURTHER: "v_new"},
    ], ids=["none", "past-both-lines", "window-not-ready", "neither-asked"])
    def test_no_asked_conflict_vehicle_asks_no_pedestrian_line(self, roles):
        asked, (est, other) = _asked_lines(lambda v: [{role: v[veh] for role, veh in roles.items()}])
        assert not asked
        assert flat(est) == [None] * 7 and flat(other) == [None] * 7

    def test_closer_vehicle_only_asks_q0_and_q1(self):
        asked, (est, _) = _asked_lines(lambda v: [{AreaRole.CLOSER: v["v_closer"]}])
        assert asked == Counter(ped_lines()[:2] + VEH_LINES["v_closer"])
        ped, _ = est
        assert ped[0] is not None and ped[1] is not None and ped[2] is None
        assert ppet(*est).c_pf is not None and ppet(*est).c_vf is not None

    @pytest.mark.parametrize("closer", [None, "v_closer", "v_past"])
    def test_further_vehicle_asks_all_three(self, closer):
        def targets_for(v):
            vehicles = {AreaRole.FURTHER: v["v_further"]}
            if closer is not None:
                vehicles[AreaRole.CLOSER] = v[closer]
            return [vehicles]

        asked, (est, _) = _asked_lines(targets_for)
        expect = ped_lines() + VEH_LINES["v_further"] + VEH_LINES.get(closer, [])
        assert asked == Counter(expect)
        ped, _ = est
        assert None not in ped

    @pytest.mark.parametrize("start_x, roles, expect", [
        (6.0, {AreaRole.CLOSER: "v_closer"}, []),
        (6.0, {AreaRole.CLOSER: "v_closer", AreaRole.FURTHER: "v_further"},
         [("a0", "ped_ltr_q2")] + VEH_LINES["v_further"]),
        (12.0, {AreaRole.CLOSER: "v_closer", AreaRole.FURTHER: "v_further"}, []),
    ], ids=["past-q1-closer-only", "past-q1-both", "past-q2-both"])
    def test_vehicle_whose_area_reads_no_line_ahead_is_not_asked(self, start_x, roles, expect):
        """The closer area's components read q0 and q1, the further one's q1
        and q2: a pedestrian past both lines that an area reads makes no
        request of that area's vehicle, and its components stay None."""
        asked, (est, _) = _asked_lines(lambda v: [{role: v[veh] for role, veh in roles.items()}], start_x)
        assert asked == Counter(expect)
        vector = ppet(*est)
        assert (vector.c_pf, vector.c_vf, vector.f_vf) == (None, None, None)
        assert (vector.f_pf is None) == (not expect)

    def test_vehicle_serving_two_pedestrians_is_asked_once(self):
        """a0 and a1 share their closer vehicle, b0 has none: the vehicle's
        two lines are asked once, q0 and q1 of a0 and a1 once each, and
        nothing else."""
        asked, estimates = _asked_lines(lambda v: [{AreaRole.CLOSER: v["v_closer"]}] * 2)
        assert asked == Counter(VEH_LINES["v_closer"] + ped_lines("a0")[:2] + ped_lines("a1")[:2])
        (_, vehicles_a0), (_, vehicles_a1), _ = estimates
        assert vehicles_a0[0][0] == vehicles_a1[0][0] is not None
