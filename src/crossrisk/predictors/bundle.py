"""Persistence for the per-(category, target) predictor table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import ManifestError, MissingPredictor, PredictionError
from ..files import read_json, write_json
from ..geometry import TargetLine
from ..stream import AgentCategory, SlidingWindowTrajectory
from .historical import HistoricalAveragePredictor, stacked_arrival_times
from .recurrent import GruStack, RecurrentRegressor, stacked_features, weight_shapes

BUNDLE_VERSION = 1

# A recurrent entry stores each gate's weights under a name of its own:
# file name -> (RecurrentRegressor.w array, index of the gate's slice in it).
FILE_WEIGHTS: dict[str, tuple[str, tuple[int, ...]]] = {
    "w_xz": ("w_x", (0,)), "w_hz": ("w_hzr", (0,)), "b_z": ("b_zr", (0, 0)),
    "w_xr": ("w_x", (1,)), "w_hr": ("w_hzr", (1,)), "b_r": ("b_zr", (1, 0)),
    "w_xc": ("w_x", (2,)), "w_hc": ("w_hc", ()), "b_c": ("b_c", (0,)),
    "w_out": ("w_out", ()), "b_out": ("b_out", ()),
}

# Train and validation shares of training.split_samples, recorded in every bundle.
SPLIT_RATIO = (0.8, 0.2)

# All (category, q) pairs the evaluation pipeline can ask for.
ALL_PAIRS: tuple[tuple[AgentCategory, int], ...] = tuple(
    (c, q) for c in AgentCategory for q in range(c.target_count)
)


Predictor = HistoricalAveragePredictor | RecurrentRegressor


@dataclass
class TrainedModelBundle:
    """One chosen predictor per (agent category, target location index)."""

    predictors: dict[tuple[AgentCategory, int], Predictor]
    validation_mae: dict[tuple[AgentCategory, int], float | None] = field(default_factory=dict)

    def predictor_for(self, category: AgentCategory, q: int) -> Predictor:
        try:
            predictor = self.predictors[(category, q)]
        except KeyError:
            raise MissingPredictor(f"no predictor for (i={int(category)}, q={q})") from None
        if not isinstance(predictor, Predictor):
            raise TypeError(f"(i={int(category)}, q={q}) holds {type(predictor).__name__}, not a predictor")
        return predictor

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
                entry["weights"] = {}
                for name, (array, index) in FILE_WEIGHTS.items():
                    part = predictor.w[array][index]
                    entry["weights"][name] = {"shape": list(part.shape), "data": part.ravel().tolist()}
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
        predictors: dict[tuple[AgentCategory, int], Predictor] = {}
        maes: dict[tuple[AgentCategory, int], float | None] = {}
        for entry in doc.get("models", []):
            key = (AgentCategory(int(entry["category"])), int(entry["q"]))
            if key in predictors:
                raise ManifestError(f"duplicate model entry for {key}")
            kind = entry.get("kind")
            if kind == "historical_average":
                predictors[key] = HistoricalAveragePredictor()
            elif kind == "recurrent":
                where = f"model entry (i={int(key[0])}, q={key[1]})"
                hidden = int(entry["hidden_size"])
                shapes = weight_shapes(hidden)
                parts = {}
                # every shape is checked before w is allocated: no hidden_size the data do not back
                for name, (array, index) in FILE_WEIGHTS.items():
                    spec = entry["weights"][name]
                    part = parts[name] = np.asarray(spec["data"], dtype=float).reshape(spec["shape"])
                    if part.shape != shapes[array][len(index):]:
                        raise ManifestError(
                            f"{where}: weight {name} has shape {part.shape}, expected {shapes[array][len(index):]}")
                w = {array: np.empty(shape) for array, shape in shapes.items()}
                for name, (array, index) in FILE_WEIGHTS.items():
                    w[array][index] = parts[name]
                feat_mean = np.asarray(entry["feat_mean"], dtype=float)
                feat_std = np.asarray(entry["feat_std"], dtype=float)
                if not all(np.all(np.isfinite(v)) for v in w.values()):
                    raise ManifestError(f"{where}: weights must be finite")
                if not np.all(np.isfinite(feat_mean)):
                    raise ManifestError(f"{where}: feat_mean must be finite")
                if not np.all(np.isfinite(feat_std) & (feat_std > 0.0)):
                    raise ManifestError(f"{where}: feat_std must be finite and positive")
                predictors[key] = RecurrentRegressor(hidden, w, feat_mean, feat_std)
            else:
                raise ManifestError(f"unknown predictor kind {kind!r}")
            maes[key] = entry.get("validation_mae")
        return cls(predictors, maes)

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "TrainedModelBundle":
        return read_json(path, "model bundle", cls.from_dict)


class InferenceView:
    """A bundle's predictors laid out for inference, built once: every GRU
    model's weights stacked per hidden size (GruStack), and each pair of
    ALL_PAIRS mapped to the baseline or to its (hidden size, row) of those
    stacks.

    Building it asks the bundle for every pair, so MissingPredictor,
    TypeError and NonFiniteParameters are raised here, not on the first
    frame that asks the pair. The stacks copy the weights: a bundle trained
    further afterwards needs a new view.
    """

    def __init__(self, bundle: TrainedModelBundle):
        self._routes: dict[tuple[AgentCategory, int], tuple[int, int] | None] = {}
        models: dict[int, list[RecurrentRegressor]] = {}
        for category, q in ALL_PAIRS:
            predictor = bundle.predictor_for(category, q)
            if isinstance(predictor, RecurrentRegressor):
                stack = models.setdefault(predictor.hidden_size, [])
                self._routes[category, q] = (predictor.hidden_size, len(stack))
                stack.append(predictor)
            else:
                self._routes[category, q] = None
        self._stacks = {hidden: GruStack(stack) for hidden, stack in models.items()}

    def arrival_times(
        self, requests: Sequence[tuple[int, SlidingWindowTrajectory, TargetLine]]
    ) -> list[float | PredictionError]:
        """Seconds until each (q, window, line) request's window reaches its
        line, by the predictor of (window category, q), or the
        PredictionError that request fails with.

        The baseline requests are answered in one stacked_arrival_times pass
        and the GRU requests in one GruStack pass per hidden size, each
        distinct window's features computed once; every value has the bits
        of a one-window predict call.
        """
        out: list = [None] * len(requests)
        baseline, by_size = [], {}
        for i, (q, window, _) in enumerate(requests):
            route = self._routes[window.category, q]
            if route is None:
                baseline.append(i)
            else:
                by_size.setdefault(route[0], []).append((i, window, route[1]))
        if baseline:
            seconds = stacked_arrival_times([requests[i][1:] for i in baseline])
            for i, value in zip(baseline, seconds):
                out[i] = value
        if by_size:
            windows = list({id(w): w for group in by_size.values() for _, w, _ in group}.values())
            index = {id(w): k for k, w in enumerate(windows)}
            features = stacked_features(
                np.stack([w.times for w in windows]), np.stack([w.positions for w in windows])
            )
            for hidden, group in by_size.items():
                seconds = self._stacks[hidden].predict(
                    [row for *_, row in group], features[[index[id(w)] for _, w, _ in group]]
                )
                for (i, _, _), value in zip(group, seconds.tolist()):
                    out[i] = value
        return out
