"""Arrival-time prediction: the constant-velocity baseline, the recurrent
regressor, labeled-dataset construction, training and model selection."""

from .bundle import ALL_PAIRS, InferenceView, TrainedModelBundle
from .dataset import Awareness, LabeledSample, build_labeled_dataset
from .historical import ARRIVAL_TIME_CAP_S, HistoricalAveragePredictor, arrival_time, average_velocity, direction_vector
from .recurrent import RecurrentRegressor, window_features
from .training import (
    TrainingConfig,
    TrainingSplit,
    evaluate_mae,
    split_samples,
    train,
    train_and_select,
    train_bundle,
    usable_samples,
)

__all__ = [
    "ARRIVAL_TIME_CAP_S",
    "ALL_PAIRS",
    "Awareness",
    "HistoricalAveragePredictor",
    "InferenceView",
    "LabeledSample",
    "RecurrentRegressor",
    "TrainedModelBundle",
    "TrainingConfig",
    "TrainingSplit",
    "arrival_time",
    "average_velocity",
    "build_labeled_dataset",
    "direction_vector",
    "evaluate_mae",
    "split_samples",
    "train",
    "train_and_select",
    "train_bundle",
    "usable_samples",
    "window_features",
]
