from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircast import ann
from aircast.ann import (
    Activation,
    MlpForecaster,
    Scaler,
    TrainConfig,
    activation,
    batch_loss,
    forecast_recursive,
    forward,
    gradient,
    make_windows,
    train,
)
from aircast.errors import DimensionError, DivergenceError, TooShortError

from conftest import daily_series


def build_net(weights, biases, hidden=Activation.TANH, scaler=Scaler()):
    return MlpForecaster(
        weights=tuple(np.asarray(w, dtype=np.float64) for w in weights),
        biases=tuple(np.asarray(b, dtype=np.float64) for b in biases),
        hidden_activation=hidden,
        scaler=scaler,
    )


def random_net(rng, window=4, hidden=5, activation_kind=Activation.TANH):
    sizes = (window, hidden, 1)
    weights = tuple(
        rng.normal(0, 0.7, size=(sizes[k + 1], sizes[k])) for k in range(len(sizes) - 1)
    )
    biases = tuple(rng.normal(0, 0.3, size=sizes[k + 1]) for k in range(len(sizes) - 1))
    return build_net(weights, biases, hidden=activation_kind)


def numeric_gradient(net, batch, step=1e-5):
    """Central finite differences of batch_loss over every coordinate."""
    d_weights, d_biases = [], []
    for k in range(len(net.weights)):
        dw = np.zeros_like(net.weights[k])
        for idx in np.ndindex(*net.weights[k].shape):
            plus = [w.copy() for w in net.weights]
            minus = [w.copy() for w in net.weights]
            plus[k][idx] += step
            minus[k][idx] -= step
            net_p = build_net(plus, net.biases, net.hidden_activation, net.scaler)
            net_m = build_net(minus, net.biases, net.hidden_activation, net.scaler)
            dw[idx] = (batch_loss(net_p, batch) - batch_loss(net_m, batch)) / (2 * step)
        d_weights.append(dw)
        db = np.zeros_like(net.biases[k])
        for idx in np.ndindex(*net.biases[k].shape):
            plus = [b.copy() for b in net.biases]
            minus = [b.copy() for b in net.biases]
            plus[k][idx] += step
            minus[k][idx] -= step
            net_p = build_net(net.weights, plus, net.hidden_activation, net.scaler)
            net_m = build_net(net.weights, minus, net.hidden_activation, net.scaler)
            db[idx] = (batch_loss(net_p, batch) - batch_loss(net_m, batch)) / (2 * step)
        d_biases.append(db)
    return d_weights, d_biases


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestActivation:
    def test_tanh_odd(self):
        assert activation(Activation.TANH, np.array([0.0]))[0] == 0.0

    @given(st.floats(-500, 500))
    def test_ranges(self, x):
        arr = np.array([x])
        assert -1.0 <= activation(Activation.TANH, arr)[0] <= 1.0
        assert activation(Activation.IDENTITY, arr)[0] == x


class TestMakeWindows:
    def test_enumeration(self):
        series = daily_series([1.0, 2.0, 3.0, 4.0])
        inputs, targets = make_windows(series, 2)
        assert len(inputs) == len(targets) == 2
        np.testing.assert_array_equal(inputs[0], [1.0, 2.0])
        assert targets[0] == 3.0
        np.testing.assert_array_equal(inputs[1], [2.0, 3.0])
        assert targets[1] == 4.0

    def test_boundary_single_pair(self):
        inputs, targets = make_windows(daily_series([1.0, 2.0, 3.0]), 2)
        assert len(inputs) == len(targets) == 1

    def test_window_one(self):
        inputs, targets = make_windows(daily_series([5.0, 6.0]), 1)
        assert len(inputs) == len(targets) == 1
        np.testing.assert_array_equal(inputs[0], [5.0])
        assert targets[0] == 6.0

    @pytest.mark.parametrize("n, w", [(2, 1), (9, 1), (9, 3), (9, 8), (40, 7), (41, 16)])
    def test_rows_match_per_window_oracle(self, n, w):
        values = np.random.default_rng(n * 100 + w).uniform(0.0, 90.0, n)
        inputs, targets = make_windows(daily_series(values), w)
        assert inputs.shape == (n - w, w) and targets.shape == (n - w,)
        for i in range(n - w):
            np.testing.assert_array_equal(inputs[i], values[i : i + w])
            assert targets[i] == values[i + w]

    def test_too_short(self):
        with pytest.raises(TooShortError):
            make_windows(daily_series([1.0, 2.0]), 2)


class TestForward:
    def test_zero_network(self):
        net = build_net([np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)])
        assert forward(net, [4.0, -7.0]) == 0.0

    def test_affine_chain(self):
        # hidden: 2x + 1 (identity), output passes through
        net = build_net(
            [[[2.0]], [[1.0]]], [[1.0], [0.0]], hidden=Activation.IDENTITY
        )
        assert forward(net, [3.0]) == 7.0

    def test_scaler_applied_and_inverted(self):
        # network that echoes its (scaled) input: output = (x-s)/sigma, then
        # de-scaled back to x
        net = build_net(
            [[[1.0]], [[1.0]]],
            [[0.0], [0.0]],
            hidden=Activation.IDENTITY,
            scaler=Scaler(shift=40.0, scale=5.0),
        )
        assert forward(net, [47.5]) == pytest.approx(47.5)

    def test_dimension_error(self):
        net = build_net([np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
        with pytest.raises(DimensionError):
            forward(net, [1.0, 2.0])

    def test_deterministic(self, rng):
        net = random_net(rng)
        x = rng.uniform(0, 50, 4)
        assert forward(net, x) == forward(net, x)


class TestGradient:
    def test_perfect_fit_zero_gradient(self):
        net = build_net([np.zeros((2, 1)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
        batch = [(np.array([3.0]), 0.0), (np.array([-1.0]), 0.0)]
        d_w, d_b = gradient(net, batch)
        assert all(np.all(g == 0.0) for g in d_w)
        assert all(np.all(g == 0.0) for g in d_b)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng)
        batch = [(rng.uniform(-2, 2, 4), float(rng.uniform(-2, 2))) for _ in range(6)]
        analytic = gradient(net, batch)
        numeric = numeric_gradient(net, batch)
        assert max_relative_error(analytic[0], numeric[0]) < 1e-4
        assert max_relative_error(analytic[1], numeric[1]) < 1e-4

    def test_identity_activation_matches_central_differences(self):
        rng = np.random.default_rng(31)
        net = random_net(rng, activation_kind=Activation.IDENTITY)
        batch = [(rng.uniform(-2, 2, 4), float(rng.uniform(-2, 2))) for _ in range(6)]
        analytic = gradient(net, batch)
        numeric = numeric_gradient(net, batch)
        assert max_relative_error(analytic[0], numeric[0]) < 1e-4
        assert max_relative_error(analytic[1], numeric[1]) < 1e-4

    @pytest.mark.parametrize("kind", list(Activation))
    def test_blockwise_normal_equations_match_full_jacobian(self, monkeypatch, kind):
        rng = np.random.default_rng(21)
        net = random_net(rng, activation_kind=kind)
        x, t = rng.uniform(-2, 2, (4, 10)), rng.uniform(-2, 2, 10)
        args = (net.weights, net.biases, kind, x, t)
        full = ann._normal_equations(*args)  # one block holds all 10 windows: the whole J
        monkeypatch.setattr(ann, "BLOCK", 3)  # blocks of 3, 3, 3 and a ragged 1
        blockwise = ann._normal_equations(*args)
        assert full[0].shape == (31, 31) and full[1].shape == (31,)
        for got, want in zip(blockwise, full):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_residual_doubling_scales_output_bias_gradient(self):
        rng = np.random.default_rng(9)
        net = random_net(rng)
        batch = [(rng.uniform(-2, 2, 4), 0.0) for _ in range(5)]
        preds = [forward(net, x) for x, _ in batch]
        # targets placed at prediction - r and prediction - 2r
        batch1 = [(x, p - 1.0) for (x, _), p in zip(batch, preds)]
        batch2 = [(x, p - 2.0) for (x, _), p in zip(batch, preds)]
        _, d_b1 = gradient(net, batch1)
        _, d_b2 = gradient(net, batch2)
        np.testing.assert_allclose(d_b2[-1], 2.0 * d_b1[-1], rtol=1e-9)


class TestTrain:
    def test_constant_series(self):
        series = daily_series([42.0] * 60)
        net = train(series, 7, 16, Activation.TANH, TrainConfig(epochs=60, seed=1))
        inputs, _ = make_windows(series, 7)
        for row in inputs:
            assert abs(forward(net, row) - 42.0) / 42.0 < 0.01

    def test_linear_ramp_with_identity(self):
        values = np.linspace(10.0, 60.0, 80)
        series = daily_series(values)
        cfg = TrainConfig(epochs=400, seed=2)
        net = train(series, 2, 4, Activation.IDENTITY, cfg)
        rng_span = values.max() - values.min()
        for row, target in zip(*make_windows(series, 2)):
            assert abs(forward(net, row) - target) < 0.02 * rng_span

    def test_deterministic_given_seed(self):
        series = daily_series(np.sin(np.arange(50) / 3.0) * 10 + 40)
        cfg = TrainConfig(epochs=20, seed=3)
        a = train(series, 4, 8, Activation.TANH, cfg)
        b = train(series, 4, 8, Activation.TANH, cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.train_loss == b.train_loss

    def test_best_loss_never_above_initial(self, rng):
        values = rng.uniform(10, 90, 64)
        series = daily_series(values)
        net = train(series, 5, 8, Activation.TANH, TrainConfig(epochs=5, seed=4))
        # the initial weights drawn from seed 4 (Glorot-uniform), scored on the
        # last 11 of the 59 windows
        draw = np.random.default_rng(4)
        weights = (draw.uniform(-np.sqrt(6 / 13), np.sqrt(6 / 13), (8, 5)),
                   draw.uniform(-np.sqrt(6 / 9), np.sqrt(6 / 9), (1, 8)))
        init = MlpForecaster(weights, (np.zeros(8), np.zeros(1)), Activation.TANH, net.scaler)
        held_out = list(zip(*make_windows(series, 5)))[-11:]
        assert net.diagnostics["validation_loss"] == pytest.approx(batch_loss(net, held_out), rel=1e-12)
        assert net.diagnostics["validation_loss"] <= batch_loss(init, held_out) + 1e-12

    def test_loss_evaluated_once_per_epoch_never_per_batch(self, monkeypatch):
        calls = []
        real_loss = ann._loss

        def counting_loss(*args):
            calls.append(args[-1].size)
            return real_loss(*args)

        monkeypatch.setattr(ann, "_loss", counting_loss)
        series = daily_series(np.sin(np.arange(80) / 3.0) * 10 + 40)
        net = train(series, 4, 8, Activation.TANH, TrainConfig(epochs=7, seed=3))
        # 76 windows: the first 61 are fitted and the last 15 held out. Every
        # loss covers a whole set, never a Jacobian block; the held-out loss is
        # taken for the initial weights and once per iteration
        iterations = len(net.diagnostics["validation_loss_curve"]) - 1
        assert 1 <= iterations <= 7
        assert calls[:2] == [61, 15] and set(calls) == {61, 15}
        assert calls.count(15) == iterations + 1

    def test_steps_that_raise_the_fit_loss_are_rejected(self):
        # plain gradient descent at learning rate 1 diverged on this ramp; a
        # damped step that does not lower the fit loss is never taken
        values = np.linspace(0.0, 100.0, 60)
        net = train(daily_series(values), 3, 8, Activation.IDENTITY, TrainConfig(epochs=300, seed=5))
        curve = np.array(net.diagnostics["fit_loss_curve"])
        assert np.all(np.isfinite(curve)) and np.all(np.diff(curve) < 0)
        assert np.isfinite(net.diagnostics["final_mu"])

    def test_non_finite_spread_is_a_divergence(self):
        series = daily_series([1e200] + [40.0] * 30)
        with pytest.raises(DivergenceError, match="mean or spread is not finite"):
            train(series, 3, 8, Activation.TANH, TrainConfig(epochs=2, seed=5))

    def test_scaling_invariance_of_pipeline(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(20, 80, 70)
        series = daily_series(values)
        cfg = TrainConfig(epochs=40, seed=6)
        net_raw = train(series, 4, 8, Activation.TANH, cfg)

        shift, scale = float(values.mean()), float(values.std())
        scaled = daily_series((values - shift) / scale)
        net_scaled = train(scaled, 4, 8, Activation.TANH, cfg)
        inputs, _ = make_windows(series, 4)
        for row in inputs[:10]:
            direct = forward(net_raw, row)
            via_scaled = forward(net_scaled, (row - shift) / scale)
            assert abs(direct - (via_scaled * scale + shift)) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-3)
        # the step and batch sizes of gradient descent are no longer options
        for gone in ("learning_rate", "batch_size"):
            with pytest.raises(TypeError):
                TrainConfig(**{gone: 1})

    def test_diagnostics_recorded(self):
        series = daily_series(np.sin(np.arange(90) / 4.0) * 10 + 40)
        net = train(series, 4, 8, Activation.TANH, TrainConfig(epochs=30, seed=2))
        d = net.diagnostics
        fit_curve, held_curve = d["fit_loss_curve"], d["validation_loss_curve"]
        assert len(fit_curve) == len(held_curve) <= 31
        assert 0 <= d["kept_iteration"] < len(held_curve)
        assert d["validation_loss"] == held_curve[d["kept_iteration"]] == min(held_curve)
        assert net.train_loss == fit_curve[d["kept_iteration"]]

    def test_too_short_to_hold_out_fits_and_chooses_on_all_windows(self):
        # 4 windows: a fifth of them rounds down to none held out
        series = daily_series([40.0, 42.0, 45.0, 41.0, 39.0, 44.0])
        net = train(series, 2, 3, Activation.TANH, TrainConfig(epochs=20, seed=1))
        d = net.diagnostics
        assert d["validation_loss_curve"] == d["fit_loss_curve"]
        assert d["validation_loss"] == net.train_loss == batch_loss(net, list(zip(*make_windows(series, 2))))

    def test_peak_memory_stays_below_one_jacobian(self):
        # 10,000 windows: the whole Jacobian, 10,000 x 145 float64, would take
        # 11.6 MB. Blocks of 1,024 windows keep training's peak near 5 MB
        values = np.random.default_rng(12).uniform(10, 90, 10_007)
        series = daily_series(values)
        tracemalloc.start()
        try:
            train(series, 7, 16, Activation.TANH, TrainConfig(epochs=2, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6e6, f"training peaked at {peak / 1e6:.1f} MB"


class TestForecastRecursive:
    def test_constant_output_net(self):
        # zero weights, output bias pinned: always predicts bias (scaled space)
        net = build_net(
            [np.zeros((2, 3)), np.zeros((1, 2))],
            [np.zeros(2), np.array([0.25])],
            scaler=Scaler(shift=40.0, scale=8.0),
        )
        history = daily_series([30.0, 35.0, 50.0])
        preds = forecast_recursive(net, history, 4)
        np.testing.assert_allclose(preds, 0.25 * 8.0 + 40.0)

    def test_echo_last_lag_fixed_point(self):
        # network computing output = newest lag -> forecasts stay at the
        # last observed value
        net = build_net(
            [[[0.0, 1.0]], [[1.0]]],
            [[0.0], [0.0]],
            hidden=Activation.IDENTITY,
        )
        history = daily_series([3.0, 9.0, 12.0])
        preds = forecast_recursive(net, history, 5)
        np.testing.assert_allclose(preds, 12.0)

    def test_ramp_continuation(self):
        values = np.linspace(10.0, 60.0, 80)
        series = daily_series(values)
        cfg = TrainConfig(epochs=400, seed=2)
        net = train(series, 2, 4, Activation.IDENTITY, cfg)
        preds = forecast_recursive(net, series, 3)
        step = values[1] - values[0]
        expected = values[-1] + step * np.arange(1, 4)
        span = values.max() - values.min()
        assert np.all(np.abs(preds - expected) < 0.05 * span)

    def test_too_short(self):
        net = build_net([np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
        with pytest.raises(TooShortError):
            forecast_recursive(net, daily_series([1.0, 2.0]), 2)


class TestSerialization:
    def test_round_trip_bitwise(self, rng):
        series = daily_series(rng.uniform(10, 90, 40))
        net = train(series, 3, 5, Activation.TANH, TrainConfig(epochs=5, seed=8))
        payload = json.dumps(net.to_dict(), indent=2)
        restored = MlpForecaster.from_dict(json.loads(payload))
        assert json.dumps(restored.to_dict(), indent=2) == payload
        for wa, wb in zip(net.weights, restored.weights):
            np.testing.assert_array_equal(wa, wb)
        x = rng.uniform(10, 90, 3)
        assert forward(net, x) == forward(restored, x)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            build_net([np.zeros((3, 2)), np.zeros((1, 2))], [np.zeros(3), np.zeros(1)])
