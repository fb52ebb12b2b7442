"""Gated recurrent arrival-time regressor with from-scratch backpropagation.

Input features per window step are displacements (dx, dy) plus speed, which
makes predictions translation invariant. The head maps the final hidden state
through softplus so outputs are always non-negative seconds.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..errors import NonFiniteGradient, NonFiniteParameters
from ..geometry import TargetLine
from ..stream import SlidingWindowTrajectory
from .base import ArrivalPrediction

INPUT_SIZE = 3

PARAM_NAMES = (
    "w_xz", "w_hz", "b_z",
    "w_xr", "w_hr", "b_r",
    "w_xc", "w_hc", "b_c",
    "w_out", "b_out",
)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def window_features(window: SlidingWindowTrajectory) -> np.ndarray:
    """Raw (T-1, 3) feature matrix: per-step dx, dy and speed magnitude."""
    deltas = np.diff(window.positions, axis=0)
    dt = np.diff(window.times)
    speed = np.hypot(deltas[:, 0], deltas[:, 1]) / dt
    return np.column_stack([deltas[:, 0], deltas[:, 1], speed])


class RecurrentRegressor:
    """Single-layer gated recurrent cell plus a linear softplus head.

    Update gate z, reset gate r and candidate state c follow the usual
    formulation h' = (1 - z) * h + z * c. Normalization constants for the
    input features are stored with the weights so inference is self-contained.
    """

    def __init__(self, hidden_size: int, params: Mapping[str, np.ndarray],
                 feat_mean: np.ndarray, feat_std: np.ndarray):
        self.hidden_size = hidden_size
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}
        self.feat_mean = np.asarray(feat_mean, dtype=float)
        self.feat_std = np.asarray(feat_std, dtype=float)
        self._check_shapes()

    # -- construction ---------------------------------------------------------

    @classmethod
    def initialize(cls, hidden_size: int, rng: np.random.Generator) -> "RecurrentRegressor":
        h = hidden_size
        sx = 1.0 / math.sqrt(INPUT_SIZE)
        sh = 1.0 / math.sqrt(h)
        params = {
            "w_xz": rng.uniform(-sx, sx, (INPUT_SIZE, h)),
            "w_hz": rng.uniform(-sh, sh, (h, h)),
            "b_z": np.zeros(h),
            "w_xr": rng.uniform(-sx, sx, (INPUT_SIZE, h)),
            "w_hr": rng.uniform(-sh, sh, (h, h)),
            "b_r": np.zeros(h),
            "w_xc": rng.uniform(-sx, sx, (INPUT_SIZE, h)),
            "w_hc": rng.uniform(-sh, sh, (h, h)),
            "b_c": np.zeros(h),
            "w_out": rng.uniform(-sh, sh, h),
            "b_out": np.zeros(1),
        }
        return cls(hidden_size, params, np.zeros(INPUT_SIZE), np.ones(INPUT_SIZE))

    @classmethod
    def zeros(cls, hidden_size: int) -> "RecurrentRegressor":
        rng = np.random.default_rng(0)
        model = cls.initialize(hidden_size, rng)
        for key in model.params:
            model.params[key] = np.zeros_like(model.params[key])
        return model

    def _check_shapes(self) -> None:
        h = self.hidden_size
        expected = {
            "w_xz": (INPUT_SIZE, h), "w_hz": (h, h), "b_z": (h,),
            "w_xr": (INPUT_SIZE, h), "w_hr": (h, h), "b_r": (h,),
            "w_xc": (INPUT_SIZE, h), "w_hc": (h, h), "b_c": (h,),
            "w_out": (h,), "b_out": (1,),
        }
        for name, shape in expected.items():
            if name not in self.params:
                raise ValueError(f"missing parameter {name}")
            if self.params[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {self.params[name].shape}, expected {shape}"
                )
        if self.feat_mean.shape != (INPUT_SIZE,) or self.feat_std.shape != (INPUT_SIZE,):
            raise ValueError("normalization constants must have shape (3,)")

    @property
    def name(self) -> str:
        return f"gru{self.hidden_size}"

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: Mapping[str, np.ndarray]) -> None:
        self.params = {k: np.asarray(v, dtype=float).copy() for k, v in params.items()}
        self._check_shapes()

    def set_normalization(self, mean: np.ndarray, std: np.ndarray) -> None:
        std = np.asarray(std, dtype=float)
        if np.any(std <= 0):
            raise ValueError("feature std must be positive")
        self.feat_mean = np.asarray(mean, dtype=float)
        self.feat_std = std

    # -- forward ----------------------------------------------------------------

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feat_mean) / self.feat_std

    def forward_batch(self, features: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the cell over a (N, T, 3) raw-feature batch.

        Returns predictions (N,) and the cache needed for backpropagation.
        """
        p = self.params
        if not all(np.all(np.isfinite(v)) for v in p.values()):
            raise NonFiniteParameters("model weights contain non-finite values")
        x = self._standardize(np.asarray(features, dtype=float))
        n, t, _ = x.shape
        h = np.zeros((n, self.hidden_size))
        steps = []
        for k in range(t):
            xk = x[:, k, :]
            z = _sigmoid(xk @ p["w_xz"] + h @ p["w_hz"] + p["b_z"])
            r = _sigmoid(xk @ p["w_xr"] + h @ p["w_hr"] + p["b_r"])
            c = np.tanh(xk @ p["w_xc"] + (r * h) @ p["w_hc"] + p["b_c"])
            h_new = (1.0 - z) * h + z * c
            steps.append((xk, h, z, r, c))
            h = h_new
        s = h @ p["w_out"] + p["b_out"][0]
        y = _softplus(s)
        cache = {"steps": steps, "h_last": h, "s": s}
        return y, cache

    def predict_features(self, features: np.ndarray) -> float:
        y, _ = self.forward_batch(features[None, :, :])
        return float(y[0])

    def predict(self, window: SlidingWindowTrajectory, line: TargetLine | None = None) -> ArrivalPrediction:
        """Arrival prediction for one window; the line argument is unused but
        keeps the predictor call signature uniform with the baseline."""
        return ArrivalPrediction(self.predict_features(window_features(window)), self.name)

    # -- backward ---------------------------------------------------------------

    def loss_and_gradients(
        self, features: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean-absolute-error loss and its gradients over a raw-feature batch.

        The subgradient at the |.| kink is taken as zero. Batch gradients are
        the mean of per-sample gradients.
        """
        targets = np.asarray(targets, dtype=float)
        if features.shape[0] == 0:
            raise ValueError("batch must be non-empty")
        y, cache = self.forward_batch(features)
        n = y.shape[0]
        residual = y - targets
        loss = float(np.mean(np.abs(residual)))

        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        ds = np.sign(residual) / n * _sigmoid(cache["s"])
        grads["w_out"] = cache["h_last"].T @ ds
        grads["b_out"] = np.array([np.sum(ds)])
        g_h = np.outer(ds, p["w_out"])

        for xk, h_prev, z, r, c in reversed(cache["steps"]):
            dz = g_h * (c - h_prev)
            dc = g_h * z
            dh_prev = g_h * (1.0 - z)

            da_c = dc * (1.0 - c * c)
            grads["w_xc"] += xk.T @ da_c
            grads["w_hc"] += (r * h_prev).T @ da_c
            grads["b_c"] += da_c.sum(axis=0)
            d_rh = da_c @ p["w_hc"].T
            dh_prev += d_rh * r
            dr = d_rh * h_prev

            da_r = dr * r * (1.0 - r)
            grads["w_xr"] += xk.T @ da_r
            grads["w_hr"] += h_prev.T @ da_r
            grads["b_r"] += da_r.sum(axis=0)

            da_z = dz * z * (1.0 - z)
            grads["w_xz"] += xk.T @ da_z
            grads["w_hz"] += h_prev.T @ da_z
            grads["b_z"] += da_z.sum(axis=0)

            dh_prev += da_z @ p["w_hz"].T + da_r @ p["w_hr"].T
            g_h = dh_prev

        for name, grad in grads.items():
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradient(f"gradient for {name} is not finite")
        return loss, grads

    def batch_mae(self, features: np.ndarray, targets: np.ndarray) -> float:
        y, _ = self.forward_batch(features)
        return float(np.mean(np.abs(y - np.asarray(targets, dtype=float))))
