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

INPUT_SIZE = 3

PARAM_NAMES = (
    "w_xz", "w_hz", "b_z",
    "w_xr", "w_hr", "b_r",
    "w_xc", "w_hc", "b_c",
    "w_out", "b_out",
)


# The constants of the cell's in-place steps as 0-d arrays: a ufunc takes
# them faster than a Python float, and their values are the same.
_ZERO, _ONE, _MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """exp(min(x, 0)) / (exp(-|x|) + 1): 1 / (1 + e) for x >= 0 and
    e / (e + 1) below, with e = exp(-|x|) <= 1, so neither branch can
    overflow. Both exponentials come from one exp call over the stacked
    scratch e (2, *x.shape), which may hold x itself in e[1]. fmin takes 0
    for a NaN x, so the NaN comes from the denominator, sign included, as in
    the two-branch form."""
    if e is None:
        e = np.empty((2, *x.shape))
    lo, neg = e[0], e[1]
    np.fmin(x, _ZERO, lo)
    np.copysign(x, _MINUS_ONE, neg)
    np.exp(e, e)
    neg += _ONE
    return np.divide(lo, neg, out)


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
    """The cell's weights laid out for _cell, with the gates on a leading
    axis of their own: w_x (3, ..., 3, H) holds w_xz, w_xr and w_xc, w_hzr
    (2, ..., H, H) w_hz and w_hr, b_zr (2, ..., 1, H) b_z and b_r. Works on
    one model's parameters and on a stack of G models alike; the model
    axis, if any, is the third from the last of every array."""
    return {
        "w_x": np.stack([p["w_xz"], p["w_xr"], p["w_xc"]]),
        "w_hzr": np.stack([p["w_hz"], p["w_hr"]]),
        "b_zr": np.stack([p["b_z"], p["b_r"]])[..., None, :],
        "w_hc": p["w_hc"],
        "b_c": p["b_c"][..., None, :],
    }


class _Buffers:
    """What the cell's steps write on states h of shape (rows, H) or
    (G, rows, H), with every view that a step reads or writes made once per
    binding. Stacked halves sit on a leading axis, so that each one is
    contiguous.

    The scratch serves every step: e (2, 2, *h.shape) is the sigmoid's, and
    e[1] holds the gates' pre-activation. bind() points the steps at the
    state hc (2, *h.shape), which holds [h, c], the gates (3, *h.shape),
    which receive [1 - z, z, r], and the state nxt whose [0] receives h'.
    The stacked pass and a forward pass without a cache bind nxt = hc;
    forward_batch binds a fresh nxt per step, which its cache keeps."""

    def __init__(self, shape: tuple[int, ...]):
        self.e = np.empty((2, 2, *shape))
        self.pre = self.e[1]
        self.rh = np.empty(shape)
        self.prod = np.empty((2, *shape))
        self.prod_h, self.prod_c = self.prod[0], self.prod[1]

    def bind(self, hc: np.ndarray, gates: np.ndarray, nxt: np.ndarray) -> None:
        self.hc = hc
        self.h_rows = hc[:1]  # h on a gate axis of one, for h @ w_hzr
        self.h, self.c = hc[0], hc[1]
        self.u, self.zr = gates[:2], gates[1:]
        self.one_minus_z, self.z, self.r = gates[0], gates[1], gates[2]
        self.out = nxt[0]


def _cell(w: Mapping[str, np.ndarray], a_zr: np.ndarray, a_c: np.ndarray, b: _Buffers) -> None:
    """One step of the gated cell on the state that b is bound to, given the
    step's input products x @ w_x of the gates, a_zr (2, *h.shape), and of
    the candidate, a_c (h.shape), and the weights of _fused. The same
    equations serve an (N, H) batch of one model's windows and a (G, 1, H)
    stack of G models' windows.

    Both gates come from one matmul call and one sigmoid. Each matmul still
    multiplies the (rows, K) @ (K, H) matrices a per-gate product would, and
    each pre-activation is (h w + x w) + b, summed in place on the h w
    product, so every value keeps its bits: concatenating the gates' columns
    instead changes which BLAS kernel path computes a column when H is not
    a multiple of the kernel's block width. The update (1 - z) h + z c is one
    product of the stacked [1 - z, z] and [h, c], then one sum.
    """
    np.matmul(b.h_rows, w["w_hzr"], b.pre)
    b.pre += a_zr
    b.pre += w["b_zr"]
    _sigmoid(b.pre, b.e, b.zr)
    np.subtract(_ONE, b.z, b.one_minus_z)
    np.multiply(b.r, b.h, b.rh)
    np.matmul(b.rh, w["w_hc"], b.c)
    b.c += a_c
    b.c += w["b_c"]
    np.tanh(b.c, b.c)
    np.multiply(b.u, b.hc, b.prod)
    np.add(b.prod_h, b.prod_c, b.out)


def _check_finite(params: Mapping[str, np.ndarray]) -> None:
    if not all(np.isfinite(v).all() for v in params.values()):
        raise NonFiniteParameters("model weights contain non-finite values")


class GruStack:
    """The weights of GRU models of one hidden size, stacked once along a
    leading model axis, fused for _cell and checked: NonFiniteParameters is
    raised here, not by a pass. A pass runs any rows of the stack together.

    The stack copies the weights, so it reads a model as it was when the
    stack was built.
    """

    def __init__(self, models: Sequence["RecurrentRegressor"]):
        self.hidden_size = models[0].hidden_size
        p = {name: np.array([m.params[name] for m in models]) for name in PARAM_NAMES}
        _check_finite(p)
        self.w = _fused(p)
        self.mean = np.array([m.feat_mean for m in models])[:, None, :]
        self.std = np.array([m.feat_std for m in models])[:, None, :]
        self.w_out = p["w_out"][:, :, None]
        self.b_out = p["b_out"][:, None, :]

    def predict(self, rows: Sequence[int], features: np.ndarray) -> np.ndarray:
        """Arrival seconds (G,) of the stack's models rows[g], each run on its
        own (T, 3) raw-feature window features[g], in one pass.

        The cell runs once per step on (G, 1, hidden) states, and every
        step's input products come from one call before the loop, still one
        (1, 3) @ (3, H) product per window, step and gate: a (T, 3) @ (3, H)
        product per window would run a matrix-matrix kernel and move bits.
        So each output has the bits of a G = 1 pass. Raises ValueError when
        an output is not a finite, non-negative number of seconds.
        """
        w = {name: np.take(v, rows, axis=-3) for name, v in self.w.items()}
        x = (np.asarray(features, dtype=float) - self.mean[rows]) / self.std[rows]
        shape = (x.shape[0], 1, self.hidden_size)
        a = x.transpose(1, 0, 2)[:, None, :, None, :] @ w["w_x"]  # (T, 3, G, 1, H), step-major
        hc = np.zeros((2, *shape))
        b = _Buffers(shape)
        b.bind(hc, np.empty((3, *shape)), hc)
        for a_zr, a_c in zip(a[:, :2], a[:, 2]):
            _cell(w, a_zr, a_c, b)
        y = _softplus(b.h @ self.w_out[rows] + self.b_out[rows]).reshape(-1)
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

    def _forward(self, features: np.ndarray, steps: list | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the cell over a (N, T, 3) raw-feature batch and return the
        predictions (N,), the last state h (N, H) and the head's
        pre-activation s (N,).

        Each step writes its input products, gates and the cell's scratch
        into buffers that every step reuses. With a steps list, each step's
        state [h, c] goes to a fresh array and the list receives what
        backpropagation reads of the step: its input, the state, a copy of z
        and r, and the candidate. Without one, the state is updated in place
        and nothing of a step is kept; the products and their bits are the
        same either way.
        """
        p = self.params
        _check_finite(p)
        w = _fused(p)
        x = self._standardize(np.asarray(features, dtype=float))
        n, t, _ = x.shape
        shape = (n, self.hidden_size)
        a = np.empty((3, *shape))
        b = _Buffers(shape)
        hc = np.zeros((2, *shape))
        gates = np.empty((3, *shape))
        for k in range(t):
            xk = x[:, k, :]
            np.matmul(xk, w["w_x"], a)
            nxt = hc if steps is None else np.empty_like(hc)
            b.bind(hc, gates, nxt)
            _cell(w, a[:2], a[2], b)
            if steps is not None:
                z, r = b.zr.copy()
                steps.append((xk, b.h, z, r, b.c))
            hc = nxt
        h = hc[0]
        s = h @ p["w_out"] + p["b_out"][0]
        return _softplus(s), h, s

    def forward_batch(self, features: np.ndarray) -> tuple[np.ndarray, dict]:
        """Run the cell over a (N, T, 3) raw-feature batch.

        Returns predictions (N,) and the cache needed for backpropagation:
        each step's input, state, z, r and candidate; 1 - z, which
        backpropagation does not read, is not kept.
        """
        steps: list = []
        y, h, s = self._forward(features, steps)
        return y, {"steps": steps, "h_last": h, "s": s}

    def predict_features(self, features: np.ndarray) -> float:
        """Arrival seconds for one (T, 3) raw-feature window: the stacked
        pass of this model alone."""
        return float(GruStack([self]).predict([0], features[None, :, :])[0])

    def predict(self, window: SlidingWindowTrajectory, line: TargetLine | None = None) -> float:
        """Arrival seconds for one window; the line argument is unused but
        keeps the predictor call signature uniform with the baseline."""
        return self.predict_features(window_features(window))

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

        Runs the forward pass without the backpropagation cache. Raises
        ValueError, as the stacked pass does, when a prediction is not a
        finite, non-negative number of seconds.
        """
        y = self._forward(features, None)[0]
        if not np.all(np.isfinite(y) & (y >= 0.0)):
            raise ValueError("arrival time must be finite and >= 0 for every window")
        return float(np.mean(np.abs(y - np.asarray(targets, dtype=float))))
