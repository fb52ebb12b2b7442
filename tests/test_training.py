import dataclasses
import json
import logging

import numpy as np
import pytest

from crossrisk.cli import EXIT_OK, main
from crossrisk.errors import DivergedLoss, PredictionError
from crossrisk.geometry import TargetLine, WorldPoint
from crossrisk.predictors import ALL_PAIRS, ARRIVAL_TIME_CAP_S, LabeledSample, TrainingConfig, training
from crossrisk.predictors.dataset import Awareness, read_samples_jsonl, write_samples_jsonl
from crossrisk.predictors.historical import HistoricalAveragePredictor
from crossrisk.predictors.recurrent import RecurrentRegressor, window_features
from crossrisk.predictors.training import (
    _features_and_targets,
    evaluate_mae,
    split_samples,
    train_and_select,
    train_bundle,
    usable_samples,
)
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory
from helpers import fit

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
        _, val_mae = fit(model, samples, config)
        assert val_mae < 0.1

    def test_same_seed_bit_identical(self):
        samples = constant_velocity_samples(120)
        config = TrainingConfig(seed=7, hidden_size=8, epochs=12, patience=4)
        results = []
        for _ in range(2):
            model = RecurrentRegressor.initialize(8, np.random.default_rng(config.seed))
            trained, mae = fit(model, samples, config)
            results.append(({k: v.copy() for k, v in trained.w.items()}, mae))
        assert results[0][1] == results[1][1]
        for name in results[0][0]:
            assert np.array_equal(results[0][0][name], results[1][0][name])

    def test_49_unaware_samples_get_the_baseline(self, monkeypatch):
        """Below MIN_TRAINING_SAMPLES no GRU trains; the pair keeps the
        baseline and the MAE it scores on its split's validation side."""
        unaware = constant_velocity_samples(49)
        noticed = constant_velocity_samples(30, seed=1, awareness=Awareness.NOTICED)
        config = TrainingConfig(seed=0, epochs=5)
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("a GRU was trained"))
        bundle, report = train_bundle(unaware + noticed, config)
        pair = (AgentCategory.ADULT, 1)
        _, val = split_samples(unaware, config.seed)
        assert len(val) == 10
        assert isinstance(bundle.predictors[pair], HistoricalAveragePredictor)
        assert bundle.validation_mae[pair] == evaluate_mae(HistoricalAveragePredictor(), val)
        assert report["i=0,q=1"] == {"chosen": "historical_average", "validation_mae": bundle.validation_mae[pair],
                                     "samples": 79}

    def test_noticed_samples_excluded_from_training_pool(self):
        unaware = constant_velocity_samples(60, seed=1)
        noticed = constant_velocity_samples(60, seed=2, awareness=Awareness.NOTICED)
        assert len(usable_samples(unaware + noticed)) == 60

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), True, "0.01", 0, -0.01])
    def test_learning_rate_must_be_a_finite_number_above_0(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be a finite number above 0"):
            TrainingConfig(learning_rate=rate)

    def test_diverged_loss_detected(self):
        samples = constant_velocity_samples(100)
        config = TrainingConfig(seed=1, hidden_size=8, learning_rate=1e5, epochs=10, patience=5)
        model = RecurrentRegressor.initialize(8, np.random.default_rng(1))
        with pytest.raises(DivergedLoss):
            fit(model, samples, config)


def select_by_maes(monkeypatch, baseline_mae, gru_maes, hidden_sizes):
    """train_and_select where the baseline scores baseline_mae and the GRU of
    hidden size h trains to gru_maes[h]: its selection arithmetic alone."""
    monkeypatch.setattr(training, "HIDDEN_SIZES", hidden_sizes)
    monkeypatch.setattr(training, "evaluate_mae", lambda predictor, samples: baseline_mae)
    monkeypatch.setattr(training, "train", lambda model, split, config: (model, gru_maes[model.hidden_size]))
    return train_and_select(constant_velocity_samples(60), TrainingConfig(seed=0))[:2]


class TestSelectModel:
    def test_argmin_by_validation_mae(self, monkeypatch):
        chosen, mae = select_by_maes(monkeypatch, 3.0, {4: 2.5, 6: 2.8}, (4, 6))
        assert chosen.name == "gru4"
        assert mae == 2.5

    def test_single_candidate(self, monkeypatch):
        samples = constant_velocity_samples(60)
        monkeypatch.setattr(training, "HIDDEN_SIZES", ())
        chosen, mae, _ = train_and_select(samples, TrainingConfig(seed=0))
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

    def test_ha_wins_on_constant_velocity_data(self, monkeypatch):
        """On exactly constant-velocity windows the closed-form baseline is
        exact, so selection must prefer it over a briefly trained model."""
        samples = constant_velocity_samples(120, seed=9)
        config = TrainingConfig(seed=3, hidden_size=8, epochs=3, patience=2)
        monkeypatch.setattr(training, "HIDDEN_SIZES", (8,))
        chosen, _, _ = train_and_select(samples, config)
        assert isinstance(chosen, HistoricalAveragePredictor)


def test_train_and_select_featurizes_the_split_once(monkeypatch):
    """Every hidden size trains on one split whose train and validation
    sides are stacked into features once each."""
    stacked = []
    features = training._features_and_targets
    monkeypatch.setattr(training, "_features_and_targets", lambda s: stacked.append(len(s)) or features(s))
    monkeypatch.setattr(training, "HIDDEN_SIZES", (4, 6))
    config = TrainingConfig(seed=1, hidden_size=8, epochs=1, patience=0)
    training.train_and_select(jittered_samples(120, seed=12), config)
    assert stacked == [96, 24]


def test_train_bundle_splits_each_pair_once(monkeypatch):
    """Every pair's unaware samples are split once; only a pair with
    MIN_TRAINING_SAMPLES of them is featurized, once per side."""
    splits, stacked = [], []
    split, features = training.split_samples, training._features_and_targets
    monkeypatch.setattr(training, "split_samples", lambda s, seed: splits.append(len(s)) or split(s, seed))
    monkeypatch.setattr(training, "_features_and_targets", lambda s: stacked.append(len(s)) or features(s))
    monkeypatch.setattr(training, "HIDDEN_SIZES", (4,))
    enough = constant_velocity_samples(50)
    short = [dataclasses.replace(s, q=2) for s in constant_velocity_samples(49, seed=1)]
    noticed = [dataclasses.replace(s, q=2) for s in constant_velocity_samples(20, seed=2, awareness=Awareness.NOTICED)]
    train_bundle(enough + short + noticed, TrainingConfig(seed=1, epochs=1, patience=0))
    pool_sizes = {(AgentCategory.ADULT, 1): 50, (AgentCategory.ADULT, 2): 49}
    assert splits == [pool_sizes.get(pair, 0) for pair in ALL_PAIRS]
    assert stacked == [40, 10]


def test_train_and_select_reuses_the_mae_train_returns(monkeypatch):
    """Only the baseline is scored again; each GRU's MAE is the one train
    returned. The choice and its MAE are the lowest evaluate_mae over the
    same candidates, bit for bit."""
    samples = jittered_samples(120, seed=12)
    config = TrainingConfig(seed=1, hidden_size=8, epochs=2, patience=1)
    scored = []
    evaluate = training.evaluate_mae
    monkeypatch.setattr(training, "evaluate_mae", lambda p, s: scored.append(p) or evaluate(p, s))
    monkeypatch.setattr(training, "HIDDEN_SIZES", (4, 6))
    chosen, mae, _ = training.train_and_select(samples, config)
    assert [type(p) for p in scored] == [HistoricalAveragePredictor]

    _, val = split_samples(usable_samples(samples), config.seed)
    candidates = [HistoricalAveragePredictor()] + [
        fit(RecurrentRegressor.initialize(h, np.random.default_rng(config.seed)), samples, config)[0]
        for h in (4, 6)
    ]
    maes = [evaluate(c, val) for c in candidates]
    expected, expected_mae = candidates[int(np.argmin(maes))], min(maes)
    assert isinstance(chosen, RecurrentRegressor) and chosen.name == expected.name
    assert mae == expected_mae
    assert all(np.array_equal(chosen.w[k], expected.w[k]) for k in chosen.w)


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
        trained, _ = fit(RecurrentRegressor.initialize(8, np.random.default_rng(2)), samples, config)
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

    def test_selection_matches_per_window_selection(self, monkeypatch):
        """train_and_select picks the candidate that one predict call per
        validation window would pick, with that candidate's MAE."""
        monkeypatch.setattr(training, "HIDDEN_SIZES", (4, 6))
        for seed in range(3):
            samples = jittered_samples(120, seed=10 + seed)
            config = TrainingConfig(seed=seed, epochs=2, patience=1)
            chosen, mae, _ = train_and_select(samples, config)
            _, val = split_samples(usable_samples(samples), config.seed)
            candidates = [HistoricalAveragePredictor()] + [
                fit(RecurrentRegressor.initialize(h, np.random.default_rng(config.seed)), samples, config)[0]
                for h in (4, 6)
            ]
            reference = [per_window_mae(c, val) for c in candidates]
            assert chosen.name == candidates[int(np.argmin(reference))].name
            assert mae == pytest.approx(min(reference), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_recurrent_output_raises(self):
        model = RecurrentRegressor.zeros(4)
        model.w["b_zr"][0] = 50.0
        model.w["b_c"][:] = 50.0
        model.w["w_out"][:] = 1e308
        samples = jittered_samples(5, seed=3)
        with pytest.raises(ValueError, match="finite and >= 0"):
            model.predict(samples[0].window)
        with pytest.raises(ValueError, match="finite and >= 0"):
            evaluate_mae(model, samples)


def test_a_diverging_candidate_is_dropped_and_named(monkeypatch, tmp_path, caplog):
    """A GRU candidate whose training diverges is dropped with a warning
    naming the pair, its hidden size and both MAEs: train exits 0, the pair
    keeps the best of the other candidates, and only that pair's report
    entry lists the diverged size."""
    samples = tmp_path / "samples.jsonl"
    write_samples_jsonl(str(samples), constant_velocity_samples(60))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "patience": 0}), encoding="utf-8")
    fitted = training.train

    def train(model, split, config):
        if model.hidden_size == 32:
            raise DivergedLoss("validation MAE 37.6628 exceeded 10x initial 1.3052")
        return fitted(model, split, config)

    monkeypatch.setattr(training, "train", train)
    report = tmp_path / "report.json"
    with caplog.at_level(logging.WARNING, logger=training.__name__):
        code = main(["train", "--dataset", str(samples), "--config", str(config),
                     "--out", str(tmp_path / "bundle.json"), "--report", str(report)])
    assert code == EXIT_OK
    assert "i=0,q=1: GRU of hidden size 32 dropped: validation MAE 37.6628 exceeded 10x initial 1.3052" in caplog.text
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["i=0,q=1"]["diverged"] == [32]
    assert [key for key, entry in doc.items() if "diverged" in entry] == ["i=0,q=1"]

    monkeypatch.setattr(training, "HIDDEN_SIZES", (16,))
    chosen, mae, diverged = train_and_select(read_samples_jsonl(str(samples)), TrainingConfig(epochs=1, patience=0))
    assert (doc["i=0,q=1"]["chosen"], doc["i=0,q=1"]["validation_mae"], diverged) == (chosen.name, mae, [])
