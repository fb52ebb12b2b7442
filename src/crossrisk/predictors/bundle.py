"""Persistence for the per-(category, target) predictor table."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ManifestError, MissingPredictor
from ..stream import AgentCategory
from .base import ArrivalTimePredictor
from .historical import HistoricalAveragePredictor
from .recurrent import PARAM_NAMES, RecurrentRegressor

BUNDLE_VERSION = 1

# Train and validation shares of training.split_samples, recorded in every bundle.
SPLIT_RATIO = (0.8, 0.2)

# All (category, q) pairs the evaluation pipeline can ask for.
ALL_PAIRS: tuple[tuple[AgentCategory, int], ...] = tuple(
    (c, q) for c in AgentCategory for q in ((0, 1) if c.conflict_area is not None else (0, 1, 2))
)


@dataclass
class TrainedModelBundle:
    """One chosen predictor per (agent category, target location index)."""

    predictors: dict[tuple[AgentCategory, int], ArrivalTimePredictor]
    validation_mae: dict[tuple[AgentCategory, int], float | None] = field(default_factory=dict)

    def predictor_for(self, category: AgentCategory, q: int) -> ArrivalTimePredictor:
        try:
            return self.predictors[(category, q)]
        except KeyError:
            raise MissingPredictor(f"no predictor for (i={int(category)}, q={q})") from None

    @classmethod
    def historical_average(cls) -> "TrainedModelBundle":
        """Bundle backing every pair with the closed-form baseline."""
        ha = HistoricalAveragePredictor()
        return cls(predictors={pair: ha for pair in ALL_PAIRS})

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        models = []
        for (category, q), predictor in sorted(
            self.predictors.items(), key=lambda kv: (int(kv[0][0]), kv[0][1])
        ):
            entry: dict = {
                "category": int(category),
                "q": q,
                "validation_mae": self.validation_mae.get((category, q)),
            }
            if isinstance(predictor, RecurrentRegressor):
                entry["kind"] = "recurrent"
                entry["hidden_size"] = predictor.hidden_size
                entry["feat_mean"] = predictor.feat_mean.tolist()
                entry["feat_std"] = predictor.feat_std.tolist()
                entry["weights"] = {
                    name: {
                        "shape": list(predictor.params[name].shape),
                        "data": predictor.params[name].ravel().tolist(),
                    }
                    for name in PARAM_NAMES
                }
            else:
                entry["kind"] = "historical_average"
            models.append(entry)
        return {
            "version": BUNDLE_VERSION,
            "split_ratio": list(SPLIT_RATIO),
            "models": models,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TrainedModelBundle":
        if "version" not in doc:
            raise ManifestError("model bundle is missing the mandatory version field")
        if doc["version"] != BUNDLE_VERSION:
            raise ManifestError(f"unsupported model bundle version {doc['version']}")
        predictors: dict[tuple[AgentCategory, int], ArrivalTimePredictor] = {}
        maes: dict[tuple[AgentCategory, int], float | None] = {}
        for entry in doc.get("models", []):
            key = (AgentCategory(int(entry["category"])), int(entry["q"]))
            if key in predictors:
                raise ManifestError(f"duplicate model entry for {key}")
            kind = entry.get("kind")
            if kind == "historical_average":
                predictors[key] = HistoricalAveragePredictor()
            elif kind == "recurrent":
                params = {}
                for name in PARAM_NAMES:
                    spec = entry["weights"][name]
                    params[name] = np.asarray(spec["data"], dtype=float).reshape(spec["shape"])
                predictors[key] = RecurrentRegressor(
                    int(entry["hidden_size"]),
                    params,
                    np.asarray(entry["feat_mean"], dtype=float),
                    np.asarray(entry["feat_std"], dtype=float),
                )
            else:
                raise ManifestError(f"unknown predictor kind {kind!r}")
            maes[key] = entry.get("validation_mae")
        return cls(predictors, maes)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TrainedModelBundle":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ManifestError(f"cannot read model bundle {path}: {exc}") from exc
