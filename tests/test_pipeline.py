import math
from dataclasses import astuple

import numpy as np
import pytest

from crossrisk.errors import MissingPredictor
from crossrisk.pipeline import (
    RiskPipeline,
    latency_report,
    read_trace_csv,
    write_risk_scenarios,
    write_trace_csv,
)
from crossrisk.predictors import RecurrentRegressor, TrainedModelBundle
from crossrisk.risk import AreaRole, RiskLevel, RiskThresholdConfig, ThresholdMode, classify_offline
from crossrisk.synthgen import ScenarioSpec, generate, reference_area_map


class Jumbled:
    """Predictor answering a fixed number of seconds for every window."""

    name = "jumbled"

    def __init__(self, value):
        self.value = value

    def predict(self, window, line):
        from crossrisk.predictors import ArrivalPrediction

        return ArrivalPrediction(self.value, self.name)


def constant_gru(value, hidden=4):
    """A zero-weight GRU: its state stays 0, so it outputs softplus(b_out) = value."""
    model = RecurrentRegressor.zeros(hidden)
    model.params["b_out"][0] = math.log(math.expm1(value))
    return model


def _ordered_frame_estimate(make):
    """The frame estimate of one pedestrian whose predictors, made by
    make(seconds), answer 5, 3 and 4 s for lines q0, q1 and q2."""
    from crossrisk.predictors.bundle import ALL_PAIRS
    from crossrisk.stream import Direction
    from conftest import constant_velocity_window

    values = {0: 5.0, 1: 3.0, 2: 4.0}  # q1 < q0: must be raised
    bundle = TrainedModelBundle(predictors={pair: make(values.get(pair[1], 1.0)) for pair in ALL_PAIRS})
    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
    window = constant_velocity_window((-2.0, 1.0), (2.0, 0.0))
    (est,) = pipeline._frame_estimates([(window, Direction.LEFT_TO_RIGHT, {})])
    return est


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
        assert all(v.empty for vectors in result.vectors_by_ped.values() for v in vectors)

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
        assert report.safety_eval_mean_ms == pytest.approx(
            report.prediction_mean_ms + report.ppet_risk_mean_ms
        )
        assert report.frames == n_frames

    def test_latency_report_tail_of_per_frame_safety_evaluation(self):
        prediction = [float(i) for i in range(1, 101)]
        ppet_risk = [0.5] * 100
        report = latency_report(prediction, ppet_risk)
        assert report.safety_eval_mean_ms == pytest.approx(51.0)
        assert report.safety_eval_p50_ms == pytest.approx(51.0)
        assert report.safety_eval_p99_ms == pytest.approx(99.5 + 0.01)
        assert report.safety_eval_max_ms == 100.5
        empty = latency_report([], [])
        assert (empty.safety_eval_p50_ms, empty.safety_eval_p99_ms, empty.safety_eval_max_ms) == (0.0, 0.0, 0.0)

    def test_missing_predictor_raises(self, scenario):
        frames, _ = scenario
        empty_bundle = TrainedModelBundle(predictors={})
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), empty_bundle)
        with pytest.raises(MissingPredictor):
            pipeline.run(frames)

    def test_non_monotone_predictions_are_ordered(self):
        """A predictor emitting out-of-order per-line estimates must still
        produce a physically ordered estimate set."""
        est = _ordered_frame_estimate(Jumbled)
        assert [est.ped_q0, est.ped_q1, est.ped_q2] == [5.0, 5.0, 5.0]

    def test_non_monotone_stacked_predictions_are_ordered(self):
        """The same for GRU estimates, which arrive after the frame's
        stacked pass."""
        est = _ordered_frame_estimate(constant_gru)
        assert est.ped_q0 == pytest.approx(5.0, rel=1e-12)
        assert [est.ped_q0, est.ped_q1, est.ped_q2] == [est.ped_q0] * 3

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
    """The estimate set the frame helper must give, one predict call per
    (window, line), in the order of ArrivalEstimateSet's fields."""
    from crossrisk.errors import PredictionError
    from crossrisk.geometry import pedestrian_line_name, signed_distance_to_line, vehicle_line_name
    from crossrisk.stream import closer_further_assignment

    lines = pipeline.area_map.line

    def predict(w, q, line):
        if signed_distance_to_line(w.end_position, line) < 0.0:
            return None
        try:
            return pipeline.bundle.predictor_for(w.category, q).predict(w, line).seconds
        except PredictionError:
            return None

    ped = [predict(window, q, lines(pedestrian_line_name(direction.value, q))) for q in (0, 1, 2)]
    for i in (1, 2):
        if ped[i] is not None:
            earlier = [v for v in ped[:i] if v is not None]
            if earlier and ped[i] < earlier[-1]:
                ped[i] = earlier[-1]
    veh = []
    for role, area_id in zip((AreaRole.CLOSER, AreaRole.FURTHER), closer_further_assignment(direction)):
        veh_id = vehicles.get(role, (None,))[0]
        if veh_id is None or not pipeline.engine.window_ready(veh_id):
            veh += [None, None]
            continue
        w = pipeline.engine.window(veh_id)
        veh += [predict(w, 0, lines(vehicle_line_name(area_id, True))),
                predict(w, 1, lines(vehicle_line_name(area_id, False)))]
    return ped + veh


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
        bundle: every estimate equals its one-window predict call."""
        def hidden_for(pair):
            return (None, 6, 11)[(int(pair[0]) + pair[1]) % 3]

        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), _gru_bundle(hidden_for))
        seen = {"frames": 0, "values": 0, "shared": 0}

        def check(targets, estimates):
            seen["frames"] += 1
            seen["shared"] += len(targets) > 1 or any(v for _, _, v in targets)
            for (window, direction, vehicles), est in zip(targets, estimates):
                expect = one_window_estimates(pipeline, window, direction, vehicles)
                got = list(astuple(est))
                assert [v is None for v in got] == [v is None for v in expect]
                for g, e in zip(got, expect):
                    if e is not None:
                        seen["values"] += 1
                        assert g == pytest.approx(e, rel=1e-12, abs=0.0)

        _spy_frames(pipeline, check)
        frame = min(busy_scenario)
        while seen["frames"] < 200:
            pipeline.process_frame(frame, busy_scenario.get(frame, []))
            frame += 1
        assert seen["shared"] > 150 and seen["values"] > 1000

    def test_failing_baseline_request_yields_none(self):
        from crossrisk.errors import NoApproach
        from crossrisk.predictors.bundle import ALL_PAIRS
        from crossrisk.stream import Direction
        from conftest import constant_velocity_window

        class Failing:
            name = "failing"

            def predict(self, window, line):
                raise NoApproach("never approaches")

        predictors = {pair: constant_gru(2.0 + pair[1]) for pair in ALL_PAIRS}
        window = constant_velocity_window((-2.0, 1.0), (2.0, 0.0))
        predictors[(window.category, 1)] = Failing()
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), TrainedModelBundle(predictors))
        (est,) = pipeline._frame_estimates([(window, Direction.LEFT_TO_RIGHT, {})])
        assert est.ped_q1 is None
        assert est.ped_q0 == pytest.approx(2.0, rel=1e-12)
        assert est.ped_q2 == pytest.approx(4.0, rel=1e-12)

    def test_gru_only_frame_makes_one_stacked_pass_per_hidden_size(self, busy_scenario, monkeypatch):
        """Pedestrian pairs hidden 5, vehicle pairs hidden 9: a frame makes at
        most one predict_stacked call per hidden size, and no one-window
        GRU call at all."""
        import crossrisk.pipeline as pipeline_module

        def no_single_window_calls(*args, **kwargs):
            raise AssertionError("the frame loop made a one-window GRU call")

        monkeypatch.setattr(RecurrentRegressor, "predict", no_single_window_calls)
        monkeypatch.setattr(RecurrentRegressor, "forward_batch", no_single_window_calls)
        passes = []
        stacked = pipeline_module.predict_stacked

        def counting(models, features):
            passes[-1].append((models[0].hidden_size, len(models)))
            return stacked(models, features)

        monkeypatch.setattr(pipeline_module, "predict_stacked", counting)

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
