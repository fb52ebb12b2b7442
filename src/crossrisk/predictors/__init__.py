"""Arrival-time prediction: the constant-velocity baseline, the recurrent
regressor, labeled-dataset construction, training and model selection."""

from .base import ARRIVAL_TIME_CAP_S, ArrivalPrediction, TargetLocation
from .bundle import ALL_PAIRS, InferenceView, TrainedModelBundle
from .dataset import (
    AgentAnnotation,
    Awareness,
    LabeledSample,
    Reaction,
    build_labeled_dataset,
    targets_for_agent,
)
from .historical import HistoricalAveragePredictor, arrival_time, average_velocity, direction_vector
from .recurrent import RecurrentRegressor, window_features
from .training import (
    TrainingConfig,
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
    "AgentAnnotation",
    "ArrivalPrediction",
    "Awareness",
    "HistoricalAveragePredictor",
    "InferenceView",
    "LabeledSample",
    "Reaction",
    "RecurrentRegressor",
    "TargetLocation",
    "TrainedModelBundle",
    "TrainingConfig",
    "arrival_time",
    "average_velocity",
    "build_labeled_dataset",
    "direction_vector",
    "evaluate_mae",
    "split_samples",
    "targets_for_agent",
    "train",
    "train_and_select",
    "train_bundle",
    "usable_samples",
    "window_features",
]
