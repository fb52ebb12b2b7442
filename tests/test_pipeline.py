import pytest

from crossrisk.errors import MissingPredictor
from crossrisk.pipeline import (
    RiskPipeline,
    latency_report,
    read_trace_csv,
    write_risk_scenarios,
    write_trace_csv,
)
from crossrisk.predictors import TrainedModelBundle
from crossrisk.risk import AreaRole, RiskLevel, RiskThresholdConfig, ThresholdMode, classify_offline
from crossrisk.synthgen import ScenarioSpec, generate, reference_area_map


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

    def test_missing_predictor_raises(self, scenario):
        frames, _ = scenario
        empty_bundle = TrainedModelBundle(predictors={})
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), empty_bundle)
        with pytest.raises(MissingPredictor):
            pipeline.run(frames)

    def test_non_monotone_predictions_are_ordered(self):
        """A predictor emitting out-of-order per-line estimates must still
        produce a physically ordered estimate set."""
        from crossrisk.predictors import ArrivalPrediction
        from crossrisk.predictors.bundle import ALL_PAIRS
        from crossrisk.stream import Direction
        from conftest import constant_velocity_window

        class Jumbled:
            name = "jumbled"

            def __init__(self, value):
                self.value = value

            def predict(self, window, line):
                return ArrivalPrediction(self.value, self.name)

        values = {0: 5.0, 1: 3.0, 2: 4.0}  # q1 < q0: must be raised
        bundle = TrainedModelBundle(
            predictors={pair: Jumbled(values.get(pair[1], 1.0)) for pair in ALL_PAIRS}
        )
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default(), bundle)
        window = constant_velocity_window((-2.0, 1.0), (2.0, 0.0))
        estimates = pipeline._pedestrian_estimates(window, Direction.LEFT_TO_RIGHT)
        assert estimates == [5.0, 5.0, 5.0]

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
