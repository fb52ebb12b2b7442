"""Gated recurrent arrival-time regressor with from-scratch backpropagation.

Input features per window step are displacements (dx, dy) plus speed, which
makes predictions translation invariant. The head maps the final hidden state
through softplus so outputs are always non-negative seconds.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

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
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1,
    # so neither branch can overflow. The steps run in place on two fresh
    # arrays: on a large batch, allocating a temporary per step cost more
    # than the arithmetic.
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    y = np.where(x >= 0, 1.0, e)
    e += 1.0
    y /= e
    return y


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def stacked_features(times: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Raw (N, T-1, 3) features of N windows given as (N, T) times and
    (N, T, 2) positions: per-step dx, dy and speed magnitude."""
    deltas = np.diff(positions, axis=1)
    speed = np.hypot(deltas[..., 0], deltas[..., 1]) / np.diff(times, axis=1)
    return np.stack([deltas[..., 0], deltas[..., 1], speed], axis=-1)


def window_features(window: SlidingWindowTrajectory) -> np.ndarray:
    """Raw (T-1, 3) feature matrix of one window."""
    return stacked_features(window.times[None], window.positions[None])[0]


def _fused(p: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The cell's weights laid out for _cell, with the gates on an axis of
    their own: w_x (..., 3, 3, H) holds w_xz, w_xr and w_xc, w_hzr
    (..., 2, H, H) w_hz and w_hr, b_zr (..., 2, 1, H) b_z and b_r. Works on
    one model's parameters and on a leading stack axis of G models alike."""
    return {
        "w_x": np.stack([p["w_xz"], p["w_xr"], p["w_xc"]], axis=-3),
        "w_hzr": np.stack([p["w_hz"], p["w_hr"]], axis=-3),
        "b_zr": np.stack([p["b_z"], p["b_r"]], axis=-2)[..., None, :],
        "w_hc": p["w_hc"],
        "b_c": p["b_c"][..., None, :],
    }


def _cell(w: Mapping[str, np.ndarray], a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """One step of the gated cell: (h', z, r, c) from the step's input
    products a = x @ w_x (..., 3, rows, H), state h (..., rows, H) and the
    weights of _fused. The same equations serve an (N, H) batch of one
    model's windows and a (G, 1, H) stack of G models' windows.

    Both gates come from one matmul call and one sigmoid. Each matmul still
    multiplies the (rows, K) @ (K, H) matrices a per-gate product would, and
    each pre-activation is (x w + h w) + b, summed in place on the h w
    product, so every value keeps its bits: concatenating the gates' columns
    instead changes which BLAS kernel path computes a column when H is not
    a multiple of the kernel's block width.
    """
    pre = h[..., None, :, :] @ w["w_hzr"]
    pre += a[..., :2, :, :]
    pre += w["b_zr"]
    zr = _sigmoid(pre)
    z, r = zr[..., 0, :, :], zr[..., 1, :, :]
    c = (r * h) @ w["w_hc"]
    c += a[..., 2, :, :]
    c += w["b_c"]
    np.tanh(c, out=c)
    return (1.0 - z) * h + z * c, z, r, c


def _check_finite(params: Mapping[str, np.ndarray]) -> None:
    if not all(np.isfinite(v).all() for v in params.values()):
        raise NonFiniteParameters("model weights contain non-finite values")


def predict_stacked(models: Sequence["RecurrentRegressor"], features: np.ndarray) -> np.ndarray:
    """Arrival seconds (G,) of G models of one hidden size, model g run on its
    own (T, 3) raw-feature window features[g], in one pass.

    The models' parameters are stacked along a leading axis and the cell runs
    once per step on (G, 1, hidden) states. Each product is the one a lone
    model computes for its window, so every output has the bits of a G = 1
    pass. Raises NonFiniteParameters for non-finite weights and ValueError,
    as ArrivalPrediction does, when an output is not a finite, non-negative
    number of seconds.
    """
    p = {name: np.array([m.params[name] for m in models]) for name in PARAM_NAMES}
    _check_finite(p)
    w = _fused(p)
    mean = np.array([m.feat_mean for m in models])[:, None, :]
    std = np.array([m.feat_std for m in models])[:, None, :]
    x = (np.asarray(features, dtype=float) - mean) / std
    # every step's input products in one call, still one (1, 3) @ (3, H)
    # product per window, step and gate: a (T, 3) @ (3, H) product per
    # window would run a matrix-matrix kernel and move bits
    a = x[:, :, None, None, :] @ w["w_x"][:, None]
    h = np.zeros((len(models), 1, models[0].hidden_size))
    for k in range(x.shape[1]):
        h = _cell(w, a[:, k], h)[0]
    y = _softplus(h @ p["w_out"][:, :, None] + p["b_out"][:, None, :]).reshape(-1)
    if not np.all(np.isfinite(y) & (y >= 0.0)):
        raise ValueError("arrival time must be finite and >= 0 for every window")
    return y


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
        _check_finite(p)
        w = _fused(p)
        x = self._standardize(np.asarray(features, dtype=float))
        n, t, _ = x.shape
        h = np.zeros((n, self.hidden_size))
        steps = []
        for k in range(t):
            xk = x[:, k, :]
            h_new, z, r, c = _cell(w, xk @ w["w_x"], h)
            steps.append((xk, h, z, r, c))
            h = h_new
        s = h @ p["w_out"] + p["b_out"][0]
        y = _softplus(s)
        cache = {"steps": steps, "h_last": h, "s": s}
        return y, cache

    def predict_features(self, features: np.ndarray) -> float:
        """Arrival seconds for one (T, 3) raw-feature window: the stacked
        pass with this model alone."""
        return float(predict_stacked([self], features[None, :, :])[0])

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
        """Mean absolute error over a raw-feature batch.

        Raises ValueError, as ArrivalPrediction does for one window, when a
        prediction is not a finite, non-negative number of seconds.
        """
        y, _ = self.forward_batch(features)
        if not np.all(np.isfinite(y) & (y >= 0.0)):
            raise ValueError("arrival time must be finite and >= 0 for every window")
        return float(np.mean(np.abs(y - np.asarray(targets, dtype=float))))
