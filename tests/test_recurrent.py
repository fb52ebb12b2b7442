import math

import numpy as np
import pytest

from crossrisk.errors import NonFiniteGradient, NonFiniteParameters
from crossrisk.predictors import recurrent
from crossrisk.predictors.bundle import FILE_WEIGHTS
from crossrisk.predictors.recurrent import (
    RecurrentRegressor,
    window_features,
)

from conftest import constant_velocity_window


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def per_gate(w):
    """Each gate's own weight arrays, by their bundle-file names, as views
    of the gate-stacked arrays w."""
    return {name: w[array][index] for name, (array, index) in FILE_WEIGHTS.items()}


def cell_oracle(model: RecurrentRegressor, features: np.ndarray) -> float:
    """Hand-rolled scalar evaluation of the gate equations, one unit at a time."""
    p = per_gate(model.w)
    h_size = model.hidden_size
    x = (features - model.feat_mean) / model.feat_std
    h = [0.0] * h_size
    for t in range(x.shape[0]):
        z = [0.0] * h_size
        r = [0.0] * h_size
        c = [0.0] * h_size
        for j in range(h_size):
            az = p["b_z"][j] + sum(x[t, i] * p["w_xz"][i, j] for i in range(3))
            ar = p["b_r"][j] + sum(x[t, i] * p["w_xr"][i, j] for i in range(3))
            for i in range(h_size):
                az += h[i] * p["w_hz"][i, j]
                ar += h[i] * p["w_hr"][i, j]
            z[j] = _sigmoid(az)
            r[j] = _sigmoid(ar)
        for j in range(h_size):
            ac = p["b_c"][j] + sum(x[t, i] * p["w_xc"][i, j] for i in range(3))
            for i in range(h_size):
                ac += r[i] * h[i] * p["w_hc"][i, j]
            c[j] = math.tanh(ac)
        h = [(1.0 - z[j]) * h[j] + z[j] * c[j] for j in range(h_size)]
    s = p["b_out"][0] + sum(h[j] * p["w_out"][j] for j in range(h_size))
    return math.log1p(math.exp(s)) if s < 30 else s


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The two-branch formula that gathers and scatters each sign's entries."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_masked_two_branch_formula():
    edges = np.array([0.0, 1e-300, 700.0, 745.0, 1e308])
    x = np.concatenate([edges, -edges, np.random.default_rng(3).normal(0.0, 20.0, 2000)])
    # exp underflows to zero (or a subnormal) past |x| ~ 708 in both formulas;
    # overflow, invalid and divide-by-zero must not happen anywhere.
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        got = recurrent._sigmoid(x)
        expected = masked_sigmoid(x)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_sigmoid_equals_two_branch_formula_on_edges():
    """One exp over exp(min(x, 0)) and exp(-|x|) gives the bits of the
    where(x >= 0, 1, e) / (1 + e) form, NaN and its sign included."""
    edges = np.array([
        0.0, 5e-324, 1e-310, 1e-17, 708.4, 745.0, 746.0, 1e308, np.inf, np.nan,
    ])
    x = np.concatenate([edges, -edges, np.random.default_rng(5).normal(0.0, 30.0, 20000)])
    with np.errstate(under="ignore", invalid="ignore"):
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0, e) / (1.0 + e)
        assert np.array_equal(recurrent._sigmoid(x).view(np.uint64), expected.view(np.uint64))


class TestForward:
    def test_zero_weights_give_log_two(self):
        model = RecurrentRegressor.zeros(8)
        w = constant_velocity_window((0.0, 0.0), (1.2, -0.4))
        assert model.predict(w) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_deterministic_across_runs(self):
        w = constant_velocity_window((1.0, 2.0), (0.8, 0.1))
        outs = set()
        for _ in range(3):
            model = RecurrentRegressor.initialize(16, np.random.default_rng(42))
            outs.add(model.predict(w))
        assert len(outs) == 1

    def test_matches_scalar_cell_oracle(self):
        rng = np.random.default_rng(9)
        model = RecurrentRegressor.initialize(5, rng)
        model.set_normalization(np.array([0.01, 0.0, 0.5]), np.array([0.2, 0.2, 0.4]))
        for _ in range(10):
            features = rng.normal(0, 0.5, (6, 3))
            got = model.predict_features(features)
            expect = cell_oracle(model, features)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_non_finite_parameters_rejected(self):
        model = RecurrentRegressor.zeros(4)
        model.w["w_out"][0] = np.nan
        w = constant_velocity_window((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(NonFiniteParameters):
            model.predict(w)

    def test_translation_invariant_features(self):
        w1 = constant_velocity_window((0.0, 0.0), (1.1, 0.3))
        w2 = constant_velocity_window((40.0, -12.0), (1.1, 0.3))
        assert np.allclose(window_features(w1), window_features(w2))
        model = RecurrentRegressor.initialize(8, np.random.default_rng(1))
        # identical up to float rounding of the coordinate differences
        assert model.predict(w1) == pytest.approx(model.predict(w2), rel=1e-9)


class TestStackedPass:
    def _models(self, rng, hidden, count):
        models = [RecurrentRegressor.initialize(hidden, rng) for _ in range(count)]
        for m in models:
            m.set_normalization(rng.normal(0.0, 0.1, 3), rng.uniform(0.2, 2.0, 3))
        return models

    def test_bits_equal_each_model_alone(self):
        """G models on G windows (a model may repeat) give, bit for bit, what
        each model's training forward pass gives for its window alone."""
        rng = np.random.default_rng(21)
        for hidden in (3, 8, 32):
            models = self._models(rng, hidden, 4)
            picks = [0, 2, 2, 3, 1, 0]
            features = rng.normal(0.0, 1.0, (len(picks), 29, 3))
            got = recurrent.GruStack(models).predict(picks, features)
            for g, i in enumerate(picks):
                alone, _ = models[i].forward_batch(features[g][None])
                assert got[g].tobytes() == alone[0].tobytes()
                assert models[i].predict_features(features[g]) == float(got[g])

    def test_non_finite_weights_in_any_model_rejected(self):
        """The stack checks its weights when it is built, before any pass."""
        rng = np.random.default_rng(2)
        models = self._models(rng, 4, 3)
        models[1].w["w_hc"][0, 0] = np.inf
        with pytest.raises(NonFiniteParameters):
            recurrent.GruStack(models)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_rejected(self):
        rng = np.random.default_rng(4)
        models = self._models(rng, 4, 2)
        features = rng.normal(0.0, 1.0, (2, 29, 3))
        features[1, 3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            recurrent.GruStack(models).predict([0, 1], features)


def per_gate_cell(p, xk, h):
    """The cell as first written: one product per gate and weight matrix,
    one sigmoid per gate."""
    z = recurrent._sigmoid(xk @ p["w_xz"] + h @ p["w_hz"] + p["b_z"])
    r = recurrent._sigmoid(xk @ p["w_xr"] + h @ p["w_hr"] + p["b_r"])
    c = np.tanh(xk @ p["w_xc"] + (r * h) @ p["w_hc"] + p["b_c"])
    return (1.0 - z) * h + z * c, z, r, c


def per_gate_stacked(models, features):
    """GruStack.predict on per_gate_cell, one step's inputs at a time."""
    p = {name: np.stack([per_gate(m.w)[name] for m in models]) for name in FILE_WEIGHTS}
    for name in ("b_z", "b_r", "b_c", "b_out"):
        p[name] = p[name][:, None, :]
    mean = np.stack([m.feat_mean for m in models])[:, None, :]
    std = np.stack([m.feat_std for m in models])[:, None, :]
    x = (features - mean) / std
    h = np.zeros((len(models), 1, models[0].hidden_size))
    for k in range(x.shape[1]):
        h = per_gate_cell(p, x[:, k : k + 1, :], h)[0]
    return recurrent._softplus(h @ p["w_out"][:, :, None] + p["b_out"]).reshape(-1)


def per_gate_forward_batch(model, features):
    """RecurrentRegressor.forward_batch on per_gate_cell."""
    p = per_gate(model.w)
    x = (features - model.feat_mean) / model.feat_std
    h = np.zeros((x.shape[0], model.hidden_size))
    steps = []
    for k in range(x.shape[1]):
        xk = x[:, k, :]
        h_new, z, r, c = per_gate_cell(p, xk, h)
        steps.append((xk, h, z, r, c))
        h = h_new
    s = h @ p["w_out"] + p["b_out"][0]
    return recurrent._softplus(s), {"steps": steps, "h_last": h, "s": s}


def per_gate_loss_and_gradients(model, features, targets):
    """RecurrentRegressor.loss_and_gradients on per_gate_forward_batch, each
    gate's gradient summed into an array of its own."""
    y, cache = per_gate_forward_batch(model, features)
    p = per_gate(model.w)
    n = y.shape[0]
    residual = y - targets
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    ds = np.sign(residual) / n * recurrent._sigmoid(cache["s"])
    grads["w_out"] = cache["h_last"].T @ ds
    grads["b_out"] = np.array([np.sum(ds)])
    g_h = np.outer(ds, p["w_out"])
    for xk, h_prev, z, r, c in reversed(cache["steps"]):
        dz = g_h * (c - h_prev)
        dh_prev = g_h * (1.0 - z)
        da_c = g_h * z * (1.0 - c * c)
        grads["w_xc"] += xk.T @ da_c
        grads["w_hc"] += (r * h_prev).T @ da_c
        grads["b_c"] += da_c.sum(axis=0)
        d_rh = da_c @ p["w_hc"].T
        dh_prev += d_rh * r
        da_r = d_rh * h_prev * r * (1.0 - r)
        grads["w_xr"] += xk.T @ da_r
        grads["w_hr"] += h_prev.T @ da_r
        grads["b_r"] += da_r.sum(axis=0)
        da_z = dz * z * (1.0 - z)
        grads["w_xz"] += xk.T @ da_z
        grads["w_hz"] += h_prev.T @ da_z
        grads["b_z"] += da_z.sum(axis=0)
        dh_prev += da_z @ p["w_hz"].T + da_r @ p["w_hr"].T
        g_h = dh_prev
    return float(np.mean(np.abs(residual))), grads


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestPerGateOracle:
    """Gate-stacked products and one sigmoid for both gates give, bit for
    bit, the cell with one product per gate, including hidden sizes that
    are not a multiple of a BLAS kernel's block width."""

    def _models(self, rng, hidden, count):
        models = [RecurrentRegressor.initialize(hidden, rng) for _ in range(count)]
        for m in models:
            m.set_normalization(rng.normal(0.0, 0.1, 3), rng.uniform(0.2, 2.0, 3))
            for name in ("b_zr", "b_c", "b_out"):
                m.w[name] = rng.normal(0.0, 0.3, m.w[name].shape)
        return models

    @pytest.mark.parametrize("hidden", [3, 8, 16, 32])
    def test_predict_stacked(self, hidden):
        rng = np.random.default_rng(100 + hidden)
        models = self._models(rng, hidden, 3)
        stack = recurrent.GruStack(models)
        for count in range(1, 7):
            rows = rng.integers(0, len(models), count).tolist()
            features = rng.normal(0.0, 1.0, (count, 29, 3))
            expected = per_gate_stacked([models[i] for i in rows], features)
            assert _bits(stack.predict(rows, features)) == _bits(expected)

    @pytest.mark.parametrize("hidden", [3, 8, 16, 32])
    def test_forward_batch_and_gradients(self, hidden):
        rng = np.random.default_rng(200 + hidden)
        (model,) = self._models(rng, hidden, 1)
        for n in (1, 2, 5, 64):
            features = rng.normal(0.0, 1.0, (n, 29, 3))
            targets = rng.uniform(0.5, 4.0, n)
            y, cache = model.forward_batch(features)
            y_ref, cache_ref = per_gate_forward_batch(model, features)
            assert _bits(y) == _bits(y_ref)
            for step, step_ref in zip(cache["steps"], cache_ref["steps"], strict=True):
                assert [_bits(a) for a in step] == [_bits(a) for a in step_ref]
            loss, grads = model.loss_and_gradients(features, targets)
            loss_ref, grads_ref = per_gate_loss_and_gradients(model, features, targets)
            assert loss == loss_ref
            assert {k: _bits(v) for k, v in per_gate(grads).items()} == {k: _bits(v) for k, v in grads_ref.items()}


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


class TestBackward:
    def _toy(self, seed=0, n=3, t=4, hidden=6):
        rng = np.random.default_rng(seed)
        model = RecurrentRegressor.initialize(hidden, rng)
        model.set_normalization(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.8]))
        features = rng.normal(0, 0.6, (n, t, 3))
        targets = rng.uniform(0.5, 4.0, n)
        return model, features, targets

    def test_gradients_match_central_finite_differences(self):
        model, features, targets = self._toy()
        _, grads = model.loss_and_gradients(features, targets)
        eps = 1e-5
        worst = 0.0
        for name in model.w:
            flat = model.w[name].reshape(-1)
            grad_flat = grads[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                loss_plus, _ = model.loss_and_gradients(features, targets)
                flat[idx] = orig - eps
                loss_minus, _ = model.loss_and_gradients(features, targets)
                flat[idx] = orig
                numeric = (loss_plus - loss_minus) / (2 * eps)
                worst = max(worst, relative_error(grad_flat[idx], numeric))
        assert worst < 1e-4

    def test_exact_prediction_contributes_zero_gradient(self):
        model = RecurrentRegressor.zeros(4)
        features = np.zeros((1, 5, 3))
        target = np.array([math.log(2.0)])  # exactly the model output
        loss, grads = model.loss_and_gradients(features, target)
        assert loss == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_batch_gradient_is_mean_of_per_sample(self):
        model, features, targets = self._toy(seed=3, n=4)
        _, batch_grads = model.loss_and_gradients(features, targets)
        accum = {k: np.zeros_like(v) for k, v in batch_grads.items()}
        for i in range(features.shape[0]):
            _, g = model.loss_and_gradients(features[i : i + 1], targets[i : i + 1])
            for k in accum:
                accum[k] += g[k] / features.shape[0]
        for k in accum:
            assert np.allclose(batch_grads[k], accum[k], atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_detected(self):
        model, features, targets = self._toy()
        features = features.copy()
        features[0, 0, 0] = np.inf
        with pytest.raises((NonFiniteGradient, NonFiniteParameters)):
            model.loss_and_gradients(features, targets)
