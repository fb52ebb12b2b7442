import numpy as np
import pytest

from crossrisk.errors import DatasetTooSmall, DivergedLoss, PredictionError
from crossrisk.geometry import TargetLine, WorldPoint
from crossrisk.predictors import ARRIVAL_TIME_CAP_S, LabeledSample, TrainingConfig
from crossrisk.predictors.dataset import Awareness
from crossrisk.predictors.historical import HistoricalAveragePredictor
from crossrisk.predictors.recurrent import RecurrentRegressor, window_features
from crossrisk.predictors.training import (
    _features_and_targets,
    evaluate_mae,
    split_samples,
    train,
    train_and_select,
    usable_samples,
)
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory

FPS = 30.0
LINE_X = 20.0
LINE = TargetLine(WorldPoint(LINE_X, -50.0), WorldPoint(LINE_X, 50.0), (1.0, 0.0))


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
                q=1,
                line=LINE,
                awareness=awareness,
            )
        )
    return out


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


def select_by_maes(monkeypatch, baseline_mae, gru_maes, hidden_sizes):
    """train_and_select where the baseline scores baseline_mae and the GRU of
    hidden size h trains to gru_maes[h]: its selection arithmetic alone."""
    from crossrisk.predictors import training

    monkeypatch.setattr(training, "evaluate_mae", lambda predictor, samples: baseline_mae)
    monkeypatch.setattr(training, "train", lambda model, split, config: (model, gru_maes[model.hidden_size]))
    return train_and_select(constant_velocity_samples(60), TrainingConfig(seed=0), hidden_sizes)


class TestSelectModel:
    def test_argmin_by_validation_mae(self, monkeypatch):
        chosen, mae = select_by_maes(monkeypatch, 3.0, {4: 2.5, 6: 2.8}, (4, 6))
        assert chosen.name == "gru4"
        assert mae == 2.5

    def test_single_candidate(self):
        samples = constant_velocity_samples(60)
        chosen, mae = train_and_select(samples, TrainingConfig(seed=0), hidden_sizes=())
        assert isinstance(chosen, HistoricalAveragePredictor)
        _, val = split_samples(samples, 0)
        assert mae == evaluate_mae(chosen, val)

    def test_tie_breaks_to_first_declared(self, monkeypatch):
        chosen, _ = select_by_maes(monkeypatch, 2.5, {4: 2.5, 6: 2.5}, (4, 6))
        assert isinstance(chosen, HistoricalAveragePredictor)
        chosen, _ = select_by_maes(monkeypatch, 3.0, {4: 2.5, 6: 2.5}, (6, 4))
        assert chosen.name == "gru6"

    def test_selection_dominance_under_permutation(self, monkeypatch):
        maes = {3: 3.0, 4: 1.4, 5: 2.0, 6: 5.0}
        rng = np.random.default_rng(3)
        for _ in range(10):
            sizes = tuple(int(h) for h in rng.permutation(list(maes)))
            chosen, mae = select_by_maes(monkeypatch, 2.2, maes, sizes)
            assert (chosen.name, mae) == ("gru4", 1.4)

    def test_ha_wins_on_constant_velocity_data(self):
        """On exactly constant-velocity windows the closed-form baseline is
        exact, so selection must prefer it over a briefly trained model."""
        samples = constant_velocity_samples(120, seed=9)
        config = TrainingConfig(seed=3, hidden_size=8, epochs=3, patience=2)
        chosen, _ = train_and_select(samples, config, hidden_sizes=(8,))
        assert isinstance(chosen, HistoricalAveragePredictor)


def test_train_and_select_featurizes_the_split_once(monkeypatch):
    """Every hidden size trains on one split whose train and validation
    sides are stacked into features once each."""
    from crossrisk.predictors import training

    stacked = []
    features = training._features_and_targets
    monkeypatch.setattr(training, "_features_and_targets", lambda s: stacked.append(len(s)) or features(s))
    config = TrainingConfig(seed=1, hidden_size=8, epochs=1, patience=0)
    training.train_and_select(jittered_samples(120, seed=12), config, hidden_sizes=(4, 6))
    assert stacked == [96, 24]

def test_train_and_select_reuses_the_mae_train_returns(monkeypatch):
    """Only the baseline is scored again; each GRU's MAE is the one train
    returned. The choice and its MAE are the lowest evaluate_mae over the
    same candidates, bit for bit."""
    from crossrisk.predictors import training

    samples = jittered_samples(120, seed=12)
    config = TrainingConfig(seed=1, hidden_size=8, epochs=2, patience=1)
    scored = []
    evaluate = training.evaluate_mae
    monkeypatch.setattr(training, "evaluate_mae", lambda p, s: scored.append(p) or evaluate(p, s))
    chosen, mae = training.train_and_select(samples, config, hidden_sizes=(4, 6))
    assert [type(p) for p in scored] == [HistoricalAveragePredictor]

    _, val = split_samples(usable_samples(samples), config.seed)
    candidates = [HistoricalAveragePredictor()] + [
        train(RecurrentRegressor.initialize(h, np.random.default_rng(config.seed)), samples, config)[0]
        for h in (4, 6)
    ]
    maes = [evaluate(c, val) for c in candidates]
    expected, expected_mae = candidates[int(np.argmin(maes))], min(maes)
    assert isinstance(chosen, RecurrentRegressor) and chosen.name == expected.name
    assert mae == expected_mae
    assert all(np.array_equal(chosen.params[k], expected.params[k]) for k in chosen.params)


def jittered_samples(n: int, seed: int) -> list[LabeledSample]:
    """Decelerating, noisy windows; some end past the line, where the
    baseline fails and scores the cap."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        v0 = float(rng.uniform(0.8, 2.2))
        decel = float(rng.uniform(0.0, 1.5))
        times = np.cumsum(rng.uniform(0.8, 1.2, WINDOW_SIZE)) / FPS
        x = v0 * times - 0.5 * decel * times**2 + rng.normal(0.0, 0.01, WINDOW_SIZE)
        end_x = LINE_X - float(rng.uniform(-0.5, 6.0))
        positions = np.column_stack([x - x[-1] + end_x, 1.0 + rng.normal(0.0, 0.01, WINDOW_SIZE)])
        window = SlidingWindowTrajectory(f"j{k}", AgentCategory.ADULT, 0, times, positions)
        out.append(
            LabeledSample(
                window=window,
                arrival_time=float(rng.uniform(0.0, 8.0)),
                q=1,
                line=LINE,
            )
        )
    return out


def per_window_mae(predictor, samples) -> float:
    """Reference: one predict call per window, a failure scoring the cap."""
    errors = []
    for s in samples:
        try:
            predicted = predictor.predict(s.window, s.line)
        except PredictionError:
            predicted = ARRIVAL_TIME_CAP_S
        errors.append(abs(predicted - s.arrival_time))
    return float(np.mean(errors))


class TestBatchedScoring:
    @pytest.fixture(scope="class")
    def candidates(self):
        samples = constant_velocity_samples(120, seed=4)
        config = TrainingConfig(seed=2, hidden_size=8, epochs=3, patience=2)
        trained, _ = train(RecurrentRegressor.initialize(8, np.random.default_rng(2)), samples, config)
        untrained = RecurrentRegressor.initialize(16, np.random.default_rng(5))
        return [HistoricalAveragePredictor(), trained, untrained]

    def test_stacked_features_equal_per_window_features(self):
        samples = jittered_samples(40, seed=1)
        stacked, targets = _features_and_targets(samples)
        assert stacked.shape == (40, WINDOW_SIZE - 1, 3)
        for row, s in zip(stacked, samples):
            deltas = np.diff(s.window.positions, axis=0)
            speed = np.hypot(deltas[:, 0], deltas[:, 1]) / np.diff(s.window.times)
            assert np.array_equal(row, np.column_stack([deltas[:, 0], deltas[:, 1], speed]))
            assert np.array_equal(row, window_features(s.window))
        assert np.array_equal(targets, [s.arrival_time for s in samples])

    def test_batched_mae_equals_per_window_mean(self, candidates):
        samples = jittered_samples(60, seed=2)
        baseline = candidates[0]
        assert any(s.window.end_position.x > LINE_X for s in samples)
        assert evaluate_mae(baseline, samples) == per_window_mae(baseline, samples)
        for candidate in candidates:
            assert evaluate_mae(candidate, samples) == pytest.approx(
                per_window_mae(candidate, samples), rel=1e-12
            )

    def test_selection_matches_per_window_selection(self):
        """train_and_select picks the candidate that one predict call per
        validation window would pick, with that candidate's MAE."""
        for seed in range(3):
            samples = jittered_samples(120, seed=10 + seed)
            config = TrainingConfig(seed=seed, epochs=2, patience=1)
            chosen, mae = train_and_select(samples, config, hidden_sizes=(4, 6))
            _, val = split_samples(usable_samples(samples), config.seed)
            candidates = [HistoricalAveragePredictor()] + [
                train(RecurrentRegressor.initialize(h, np.random.default_rng(config.seed)), samples, config)[0]
                for h in (4, 6)
            ]
            reference = [per_window_mae(c, val) for c in candidates]
            assert chosen.name == candidates[int(np.argmin(reference))].name
            assert mae == pytest.approx(min(reference), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_recurrent_output_raises(self):
        model = RecurrentRegressor.zeros(4)
        model.params["b_z"][:] = 50.0
        model.params["b_c"][:] = 50.0
        model.params["w_out"][:] = 1e308
        samples = jittered_samples(5, seed=3)
        with pytest.raises(ValueError, match="finite and >= 0"):
            model.predict(samples[0].window)
        with pytest.raises(ValueError, match="finite and >= 0"):
            evaluate_mae(model, samples)
