import numpy as np
import pytest

from crossrisk.errors import DatasetTooSmall, DivergedLoss, EmptyCandidates
from crossrisk.geometry import TargetLine, WorldPoint
from crossrisk.predictors import (
    AgentKind,
    ArrivalPrediction,
    LabeledSample,
    TargetLocation,
    TrainingConfig,
)
from crossrisk.predictors.dataset import Awareness
from crossrisk.predictors.historical import HistoricalAveragePredictor
from crossrisk.predictors.recurrent import RecurrentRegressor
from crossrisk.predictors.training import (
    evaluate_mae,
    select_model,
    split_samples,
    train,
    usable_samples,
)
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory

FPS = 30.0
LINE_X = 20.0
LINE = TargetLine(WorldPoint(LINE_X, -50.0), WorldPoint(LINE_X, 50.0), (1.0, 0.0))
TARGET = TargetLocation(AgentKind.PEDESTRIAN, 1, LINE)


def window_ending_at_distance(v: float, distance: float, agent_id: str) -> SlidingWindowTrajectory:
    end_x = LINE_X - distance
    start_x = end_x - v * (WINDOW_SIZE - 1) / FPS
    times = np.array([i / FPS for i in range(WINDOW_SIZE)])
    positions = np.array([(start_x + v * i / FPS, 1.0) for i in range(WINDOW_SIZE)])
    return SlidingWindowTrajectory(agent_id, AgentCategory.ADULT, 0, times, positions)


def constant_velocity_samples(n: int, seed: int = 0, awareness=Awareness.DID_NOT_NOTICE):
    """Windows always end 5 m from the line, so the label 5/v is analytic."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        v = float(rng.uniform(0.8, 2.2))
        out.append(
            LabeledSample(
                window=window_ending_at_distance(v, 5.0, f"a{k}"),
                arrival_time=5.0 / v,
                category=AgentCategory.ADULT,
                q=TARGET,
                awareness=awareness,
            )
        )
    return out


class StubPredictor:
    """Constant-output predictor for selection arithmetic."""

    def __init__(self, value: float, name: str):
        self.value = value
        self.name = name

    def predict(self, window, line):
        return ArrivalPrediction(self.value, self.name)


class TestTrain:
    def test_constant_velocity_family_converges(self):
        samples = constant_velocity_samples(400)
        config = TrainingConfig(seed=1, hidden_size=16, epochs=150, patience=25)
        model = RecurrentRegressor.initialize(16, np.random.default_rng(config.seed))
        _, val_mae = train(model, samples, config)
        assert val_mae < 0.1

    def test_same_seed_bit_identical(self):
        samples = constant_velocity_samples(120)
        config = TrainingConfig(seed=7, hidden_size=8, epochs=12, patience=4)
        results = []
        for _ in range(2):
            model = RecurrentRegressor.initialize(8, np.random.default_rng(config.seed))
            trained, mae = train(model, samples, config)
            results.append((trained.copy_params(), mae))
        assert results[0][1] == results[1][1]
        for name in results[0][0]:
            assert np.array_equal(results[0][0][name], results[1][0][name])

    def test_dataset_too_small(self):
        samples = constant_velocity_samples(49)
        config = TrainingConfig(seed=0, epochs=5)
        model = RecurrentRegressor.initialize(8, np.random.default_rng(0))
        with pytest.raises(DatasetTooSmall):
            train(model, samples, config)

    def test_noticed_samples_excluded_from_training_pool(self):
        unaware = constant_velocity_samples(60, seed=1)
        noticed = constant_velocity_samples(60, seed=2, awareness=Awareness.NOTICED)
        assert len(usable_samples(unaware + noticed)) == 60

    def test_diverged_loss_detected(self):
        samples = constant_velocity_samples(100)
        config = TrainingConfig(seed=1, hidden_size=8, learning_rate=1e5, epochs=10, patience=5)
        model = RecurrentRegressor.initialize(8, np.random.default_rng(1))
        with pytest.raises(DivergedLoss):
            train(model, samples, config)


class TestSelectModel:
    def _val_samples(self):
        # label 1.0 everywhere makes a stub's MAE = |value - 1|
        return [
            LabeledSample(
                window=window_ending_at_distance(1.0, 5.0, f"s{k}"),
                arrival_time=1.0,
                category=AgentCategory.ADULT,
                q=TARGET,
            )
            for k in range(10)
        ]

    def test_argmin_by_validation_mae(self):
        val = self._val_samples()
        candidates = [StubPredictor(3.0, "m0"), StubPredictor(2.5, "m1"), StubPredictor(2.8, "m2")]
        chosen, mae = select_model(candidates, val)
        assert chosen.name == "m1"
        assert mae == pytest.approx(1.5)

    def test_single_candidate(self):
        val = self._val_samples()
        chosen, _ = select_model([StubPredictor(2.0, "only")], val)
        assert chosen.name == "only"

    def test_tie_breaks_to_first_declared(self):
        val = self._val_samples()
        candidates = [StubPredictor(2.5, "first"), StubPredictor(-0.0 + 2.5, "second")]
        chosen, _ = select_model(candidates, val)
        assert chosen.name == "first"

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            select_model([], self._val_samples())

    def test_selection_dominance_under_permutation(self):
        val = self._val_samples()
        candidates = [StubPredictor(v, f"m{v}") for v in (3.0, 1.4, 2.0, 5.0)]
        maes = {c.name: evaluate_mae(c, val) for c in candidates}
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = [candidates[i] for i in rng.permutation(len(candidates))]
            chosen, mae = select_model(perm, val)
            assert mae <= min(maes.values()) + 1e-12

    def test_ha_wins_on_constant_velocity_data(self):
        """On exactly constant-velocity windows the closed-form baseline is
        exact, so selection must prefer it over a briefly trained model."""
        samples = constant_velocity_samples(120, seed=9)
        config = TrainingConfig(seed=3, hidden_size=8, epochs=3, patience=2)
        model = RecurrentRegressor.initialize(8, np.random.default_rng(config.seed))
        trained, _ = train(model, samples, config)
        _, val = split_samples(samples, config.seed)
        chosen, _ = select_model([HistoricalAveragePredictor(), trained], val)
        assert isinstance(chosen, HistoricalAveragePredictor)
