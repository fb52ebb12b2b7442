"""Training loop for the recurrent regressor and validation-MAE model selection."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DivergedLoss, PredictionError
from ..stream import AgentCategory
from .bundle import ALL_PAIRS, SPLIT_RATIO, Predictor, TrainedModelBundle
from .dataset import Awareness, LabeledSample
from .historical import ARRIVAL_TIME_CAP_S, HistoricalAveragePredictor, stacked_arrival_times
from .recurrent import RecurrentRegressor, stacked_features

log = logging.getLogger(__name__)

MIN_TRAINING_SAMPLES = 50
HIDDEN_SIZES = (16, 32)  # the GRU candidates; of equal MAEs, the baseline and then the earlier size wins
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingConfig:
    seed: int = 0
    hidden_size: int = 32
    learning_rate: float = 0.01
    epochs: int = 200
    patience: int = 15
    batch_size: int = 32

    def __post_init__(self) -> None:
        for name in ("seed", "epochs", "patience", "batch_size", "hidden_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be 0 or more, got {self.seed}")
        if self.epochs < 1 or self.patience < 0 or self.batch_size < 1:
            raise ValueError("epochs, patience and batch_size must be positive")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not math.isfinite(rate) or rate <= 0:
            raise ValueError(f"learning_rate must be a finite number above 0, got {rate!r}")


def usable_samples(samples: Sequence[LabeledSample]) -> list[LabeledSample]:
    """Training pool: only pedestrians/vehicles that did not notice a threat,
    which keeps the models tuned to the worst-case (unaware) behavior."""
    return [s for s in samples if s.awareness is Awareness.DID_NOT_NOTICE]


def split_samples(
    samples: Sequence[LabeledSample], seed: int
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Deterministic seeded shuffle split in SPLIT_RATIO (8:2)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cut = int(round(SPLIT_RATIO[0] * len(samples)))
    train = [samples[i] for i in order[:cut]]
    val = [samples[i] for i in order[cut:]]
    return train, val


def _features_and_targets(samples: Sequence[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    times = np.stack([s.window.times for s in samples])
    positions = np.stack([s.window.positions for s in samples])
    x = stacked_features(times, positions)
    y = np.array([s.arrival_time for s in samples])
    return x, y


@dataclass(frozen=True)
class TrainingSplit:
    """The stacked features and targets of both sides of one split."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray

    @classmethod
    def featurize(
        cls, train_set: Sequence[LabeledSample], val_set: Sequence[LabeledSample]
    ) -> "TrainingSplit":
        return cls(*_features_and_targets(train_set), *_features_and_targets(val_set))


def train(
    model: RecurrentRegressor, split: TrainingSplit, config: TrainingConfig
) -> tuple[RecurrentRegressor, float]:
    """Fit the regressor on a featurized split with Adam on MAE loss;
    returns best-epoch weights and their validation MAE.

    Deterministic given the config seed: batch order and weight updates
    draw from seeded generators. Stops early when the validation MAE has
    not improved for `patience` epochs.
    """
    x_train, y_train, x_val, y_val = split.x_train, split.y_train, split.x_val, split.y_val

    mean = x_train.reshape(-1, x_train.shape[-1]).mean(axis=0)
    std = x_train.reshape(-1, x_train.shape[-1]).std(axis=0)
    std = np.where(std > 1e-8, std, 1.0)
    model.set_normalization(mean, std)

    rng = np.random.default_rng(config.seed + 1)
    m_state = {k: np.zeros_like(v) for k, v in model.w.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.w.items()}
    step = 0

    initial_mae = model.batch_mae(x_val, y_val)
    best_mae = initial_mae
    best_w = {k: v.copy() for k, v in model.w.items()}
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(y_train))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = model.loss_and_gradients(x_train[batch], y_train[batch])
            step += 1
            for name, grad in grads.items():
                m_state[name] = ADAM_BETA1 * m_state[name] + (1 - ADAM_BETA1) * grad
                v_state[name] = ADAM_BETA2 * v_state[name] + (1 - ADAM_BETA2) * grad * grad
                m_hat = m_state[name] / (1 - ADAM_BETA1**step)
                v_hat = v_state[name] / (1 - ADAM_BETA2**step)
                model.w[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        val_mae = model.batch_mae(x_val, y_val)
        if val_mae > 10.0 * max(initial_mae, 1e-6):
            raise DivergedLoss(
                f"validation MAE {val_mae:.4f} exceeded 10x initial {initial_mae:.4f}"
            )
        if val_mae < best_mae - 1e-12:
            best_mae = val_mae
            best_w = {k: v.copy() for k, v in model.w.items()}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                log.debug("early stop at epoch %d (best val MAE %.4f)", epoch, best_mae)
                break

    model.w = best_w
    return model, best_mae


def evaluate_mae(predictor: Predictor, samples: Sequence[LabeledSample]) -> float:
    """Mean absolute error of a predictor on labeled samples.

    A recurrent predictor scores all samples in one forward pass and the
    baseline in one stacked pass. A failed baseline prediction (agent past
    the line, no approach, ...) counts as the cap value, the maximally wrong
    answer, so the baseline cannot win selection by silently skipping hard
    samples.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    if isinstance(predictor, RecurrentRegressor):
        return predictor.batch_mae(*_features_and_targets(samples))
    seconds = stacked_arrival_times([(s.window, s.line) for s in samples])
    predicted = [ARRIVAL_TIME_CAP_S if isinstance(v, PredictionError) else v for v in seconds]
    return float(np.mean([abs(p - s.arrival_time) for p, s in zip(predicted, samples)]))


def train_and_select(
    samples: Sequence[LabeledSample], config: TrainingConfig
) -> tuple[Predictor, float | None, list[int]]:
    """The predictor of one (category, q) pair, its validation MAE and the
    hidden sizes whose GRU diverged.

    The pair's unaware samples are split once, with the config seed, and
    the baseline is scored on the validation side (None when it is empty).
    With MIN_TRAINING_SAMPLES unaware samples, both sides are featurized
    once and a GRU of each size in HIDDEN_SIZES trains on them; the lowest
    validation MAE wins, the earliest of equal ones. A trained GRU's MAE is
    the best validation MAE that `train` reports for the weights it returns.
    A GRU whose training diverges is dropped with a warning, so the pair
    keeps the best of the others, the baseline at worst.
    """
    train_set, val_set = split_samples(usable_samples(samples), config.seed)
    best: Predictor = HistoricalAveragePredictor()
    best_mae = evaluate_mae(best, val_set) if val_set else None
    diverged = []
    if len(train_set) + len(val_set) >= MIN_TRAINING_SAMPLES:
        split = TrainingSplit.featurize(train_set, val_set)
        for size in HIDDEN_SIZES:
            model = RecurrentRegressor.initialize(size, np.random.default_rng(config.seed))
            try:
                trained, mae = train(model, split, config)
            except DivergedLoss as exc:
                head = train_set[0]
                log.warning("i=%d,q=%d: GRU of hidden size %d dropped: %s", head.category, head.q, size, exc)
                diverged.append(size)
                continue
            if mae < best_mae:
                best, best_mae = trained, mae
    return best, best_mae, diverged


def train_bundle(
    samples: Sequence[LabeledSample], config: TrainingConfig
) -> tuple[TrainedModelBundle, dict[str, dict]]:
    """One predictor per (category, q) pair, chosen by train_and_select, and
    a report of the choices. The report maps "i=<category>,q=<q>" to the
    chosen predictor's name, its validation MAE and the pair's sample count,
    and, for a pair where a GRU diverged, "diverged": its hidden sizes.
    """
    groups: dict[tuple[AgentCategory, int], list[LabeledSample]] = {}
    for s in samples:
        groups.setdefault((s.category, s.q), []).append(s)

    bundle = TrainedModelBundle(predictors={}, validation_mae={})
    report = {}
    for pair in ALL_PAIRS:
        group = groups.get(pair, [])
        predictor, mae, diverged = train_and_select(group, config)
        bundle.predictors[pair] = predictor
        bundle.validation_mae[pair] = mae
        entry = report[f"i={int(pair[0])},q={pair[1]}"] = {
            "chosen": predictor.name,
            "validation_mae": mae,
            "samples": len(group),
        }
        if diverged:
            entry["diverged"] = diverged
    return bundle, report
