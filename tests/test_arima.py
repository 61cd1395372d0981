from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from aircast import arima
from aircast.arima import (
    ArimaModel,
    ArimaOrder,
    aic,
    ar_is_stationary,
    fit_arima,
    forecast,
    ma_is_invertible,
    ma_unconditional_moments,
    select_order,
    simulate_arma,
)
from scipy.signal import lfilter

from aircast.errors import (
    NoConvergedModelError,
    NonStationaryError,
    OptimizerFailure,
    TooShortError,
)
from aircast.series import Granularity, TimeSeries, difference_values

from conftest import daily_series


def css_residuals(z, alpha, beta, theta):
    """Oracle: the CSS one-step residuals by the sequential formula, on the
    (already differenced) series with zero pre-sample residuals, for
    t = p .. len(z)-1."""
    z = np.asarray(z, dtype=np.float64)
    p = len(beta)
    n = z.size
    u = z[p:] - alpha
    for i, b in enumerate(beta, start=1):
        u = u - b * z[p - i : n - i]
    if len(theta) == 0:
        return u
    return lfilter([1.0], [1.0, *theta], u)


def manual_model(order, alpha=0.0, beta=(), theta=(), sigma2=1.0):
    return ArimaModel(
        order=order,
        alpha=alpha,
        beta=tuple(beta),
        theta=tuple(theta),
        sigma2=sigma2,
        css=sigma2 * 100,
        n_effective=100,
        converged=True,
        ar_stationary=ar_is_stationary(beta),
        ma_invertible=True,
    )


class TestOrderGuardrails:
    def test_bounds(self):
        ArimaOrder(10, 2, 10)
        with pytest.raises(ValueError):
            ArimaOrder(11, 0, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 3, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, -1)


def polynomial_with_roots(rng):
    """Ascending real coefficients, constant 1, of a polynomial of degree 0-6
    whose roots have moduli in [0.5, 0.95] or [1.05, 2]: real roots and
    complex-conjugate pairs."""
    def modulus():
        return rng.uniform(0.5, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 2.0)

    roots = []
    for _ in range(rng.integers(0, 4)):
        if rng.random() < 0.5:
            roots.append(modulus() * rng.choice([-1.0, 1.0]))
        else:
            root = modulus() * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots += [root, np.conj(root)]
    coeffs = np.polynomial.polynomial.polyfromroots(roots).real
    return coeffs / coeffs[0]


class TestRootFlags:
    """Stationarity and invertibility against numpy's own root finder."""

    def test_agree_with_np_roots(self, rng):
        for _ in range(500):
            ascending = polynomial_with_roots(rng)
            expected = bool(np.all(np.abs(np.roots(ascending[::-1])) > 1.0))
            assert ar_is_stationary(-ascending[1:]) == expected
            assert ma_is_invertible(ascending[1:]) == expected


class TestSimulate:
    def test_white_noise_mean(self):
        n = 10_000
        series = simulate_arma(0.0, [], [], 1.0, n, seed=1)
        assert abs(series.values.mean()) < 3.0 / np.sqrt(n)

    def test_ar1_autocorrelation(self):
        series = simulate_arma(0.0, [0.7], [], 1.0, 10_000, seed=2)
        y = series.values - series.values.mean()
        rho1 = np.dot(y[1:], y[:-1]) / np.dot(y, y)
        assert abs(rho1 - 0.7) < 0.05

    def test_deterministic(self):
        a = simulate_arma(1.0, [0.5], [0.2], 2.0, 500, seed=42)
        b = simulate_arma(1.0, [0.5], [0.2], 2.0, 500, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.at, b.at)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationaryError):
            simulate_arma(0.0, [1.1], [], 1.0, 100, seed=0)
        with pytest.raises(NonStationaryError):
            simulate_arma(0.0, [1.0], [], 1.0, 100, seed=0)

    def test_daily_instants(self):
        series = simulate_arma(0.0, [], [], 1.0, 10, seed=0)
        assert series.granularity is Granularity.DAILY
        assert np.all(np.diff(series.at) == 86400)


class TestMaMoments:
    def test_white_noise(self):
        assert ma_unconditional_moments(0.0, [], 1.0) == (0.0, 1.0)

    def test_ma1(self):
        mean, var = ma_unconditional_moments(5.0, [0.5], 1.0)
        assert mean == 5.0
        assert var == pytest.approx(1.25)

    def test_monte_carlo_agreement(self):
        # simulate 1e5 MA(1) draws and compare the sample variance
        series = simulate_arma(0.0, [], [0.5], 1.0, 100_000, seed=3)
        _, var = ma_unconditional_moments(0.0, [0.5], 1.0)
        sample = float(np.var(series.values))
        assert abs(sample - var) / var < 0.05

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_theta_within_5pct(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-0.9, 0.9, size=rng.integers(1, 4))
        _, var = ma_unconditional_moments(0.0, theta, 1.0)
        series = simulate_arma(0.0, [], theta, 1.0, 100_000, seed=seed + 10)
        assert abs(np.var(series.values) - var) / var < 0.05

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            ma_unconditional_moments(0.0, [0.5], 0.0)


class TestFit:
    def test_ar1_recovery(self):
        series = simulate_arma(0.0, [0.7], [], 1.0, 2000, seed=11)
        model = fit_arima(series, ArimaOrder(1, 0, 0))
        assert abs(model.beta[0] - 0.7) < 0.05
        assert model.converged
        assert model.ar_stationary

    def test_white_noise_intercept(self):
        series = simulate_arma(0.0, [], [], 1.0, 2000, seed=12)
        model = fit_arima(series, ArimaOrder(0, 0, 0))
        sample_mean = series.values.mean()
        se = series.values.std() / np.sqrt(len(series))
        assert abs(model.alpha - sample_mean) < 3 * se
        assert 0.8 < model.sigma2 < 1.2

    def test_ma1_recovery(self):
        series = simulate_arma(0.0, [], [0.5], 1.0, 2000, seed=13)
        model = fit_arima(series, ArimaOrder(0, 0, 1))
        assert abs(model.theta[0] - 0.5) < 0.1

    def test_descent_from_both_starts(self):
        series = simulate_arma(2.0, [0.6], [0.3], 1.5, 400, seed=14)
        model = fit_arima(series, ArimaOrder(1, 0, 1))
        z = difference_values(series.values, 0)

        def css_at(alpha, beta, theta):
            e = css_residuals(z, alpha, beta, theta)
            return float(np.dot(e, e))

        assert model.css <= css_at(0.0, [0.0], [0.0])
        assert model.css <= css_at(model.alpha, model.beta, model.theta) + 1e-9

    def test_too_short(self):
        with pytest.raises(TooShortError):
            fit_arima(daily_series([1.0, 2.0, 3.0]), ArimaOrder(2, 0, 2))

    def test_parameter_recovery_average(self):
        errors = []
        for seed in range(20):
            series = simulate_arma(0.0, [0.7], [], 1.0, 2000, seed=seed)
            model = fit_arima(series, ArimaOrder(1, 0, 0))
            errors.append(abs(model.beta[0] - 0.7))
        assert float(np.mean(errors)) < 0.03
        assert max(errors) < 0.05


def lag_design(z, p):
    """Intercept column followed by z_{t-1} .. z_{t-p}, rows t = p .. n-1."""
    n = z.size
    return np.column_stack([np.ones(n - p)] + [z[p - i : n - i] for i in range(1, p + 1)])


def nelder_mead_fit(series, order):
    """The two-start Nelder-Mead search on its own, as (params, css, converged)."""
    z = difference_values(series.values, order.d)
    lags = arima._lag_matrix(z, order.p)
    return arima._css_nelder_mead(z, lags, order.q)


class TestCssEstimation:
    @pytest.mark.parametrize("p,d", [(0, 0), (1, 0), (3, 0), (2, 1)])
    def test_pure_ar_is_ols(self, p, d):
        series = simulate_arma(5.0, [0.5, 0.2], [0.4], 2.0, 300, seed=30 + p)
        model = fit_arima(series, ArimaOrder(p, d, 0))
        z = difference_values(series.values, d)
        design = lag_design(z, p)
        coef, *_ = np.linalg.lstsq(design, z[p:], rcond=None)
        np.testing.assert_allclose([model.alpha, *model.beta], coef, rtol=1e-12)
        resid = z[p:] - design @ coef
        assert model.css == pytest.approx(float(resid @ resid), rel=1e-12)
        assert model.converged

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 2), (1, 3)])
    def test_analytic_jacobian_matches_central_differences(self, p, q):
        series = simulate_arma(3.0, [0.5], [0.3], 1.0, 200, seed=40 + q)
        z = series.values
        rng = np.random.default_rng(p * 10 + q)
        params = np.concatenate([[3.0], rng.uniform(-0.3, 0.3, p + q)])

        def residuals(x):
            return css_residuals(z, x[0], x[1 : 1 + p], x[1 + p :])

        jac = arima._css_jacobian(params, residuals(params), arima._lag_matrix(z, p), q)
        numeric = np.empty_like(jac)
        h = 1e-6
        for k in range(params.size):
            step = np.zeros(params.size)
            step[k] = h
            numeric[:, k] = (residuals(params + step) - residuals(params - step)) / (2 * h)
        np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(3))
    def test_css_errors_match_the_sequential_oracle(self, p, q):
        z = simulate_arma(2.0, [0.5], [0.3], 1.0, 300, seed=60 + p).values
        rng = np.random.default_rng(10 * p + q)
        for _ in range(20):
            params = np.concatenate([rng.normal(0.0, 2.0, 1), rng.uniform(-0.4, 0.4, p + q)])
            np.testing.assert_allclose(
                arima._css_errors(params, z, arima._lag_matrix(z, p)),
                css_residuals(z, params[0], params[1 : 1 + p], params[1 + p :]),
                rtol=1e-12, atol=1e-12,
            )

    def test_least_squares_css_not_above_nelder_mead(self):
        accepted = 0
        for seed in range(6):
            series = simulate_arma(10.0, [0.6], [0.3], 2.0, 300, seed=50 + seed)
            for p, q in [(0, 1), (1, 1), (0, 2), (1, 2)]:
                z = series.values
                solved = arima._css_least_squares(z, arima._lag_matrix(z, p), q)
                if solved is None:  # guarded: fit_arima takes the Nelder-Mead path
                    continue
                accepted += 1
                _, css_nm, _ = nelder_mead_fit(series, ArimaOrder(p, 0, q))
                assert solved[1] <= css_nm * (1 + 1e-9)
                assert fit_arima(series, ArimaOrder(p, 0, q)).css == solved[1]
        assert accepted >= 18

    def test_redundant_solution_falls_back_to_nelder_mead(self, monkeypatch):
        series = simulate_arma(0.0, [], [], 1.0, 200, seed=100)
        order = ArimaOrder(2, 0, 2)
        solutions = []
        real_least_squares = arima.least_squares

        def recording(*args, **kwargs):
            result = real_least_squares(*args, **kwargs)
            solutions.append(result)
            return result

        monkeypatch.setattr(arima, "least_squares", recording)
        model = fit_arima(series, order)
        (lm,) = solutions
        assert lm.success
        assert arima._arma_redundant(lm.x[1:3], lm.x[3:])

        params, css, converged = nelder_mead_fit(series, order)
        assert model.alpha == params[0]
        assert model.beta == tuple(params[1:3])
        assert model.theta == tuple(params[3:])
        assert model.css == css
        assert model.converged == converged


    def test_too_few_residuals_for_least_squares_falls_back_to_nelder_mead(self, monkeypatch):
        # order (2,0,1) on 5 points: 3 residuals for 4 parameters, which "lm" refuses
        series = simulate_arma(0.0, [], [], 1.0, 5, seed=101)
        order = ArimaOrder(2, 0, 1)
        refusals = []
        real_least_squares = arima.least_squares

        def recording(*args, **kwargs):
            try:
                return real_least_squares(*args, **kwargs)
            except ValueError as exc:
                refusals.append(exc)
                raise

        monkeypatch.setattr(arima, "least_squares", recording)
        model = fit_arima(series, order)
        assert len(refusals) == 1

        params, css, converged = nelder_mead_fit(series, order)
        assert model.alpha == params[0]
        assert model.beta == tuple(params[1:3])
        assert model.theta == tuple(params[3:])
        assert model.css == css
        assert model.converged == converged


class TestForecast:
    def test_constant_model(self):
        model = manual_model(ArimaOrder(0, 0, 0), alpha=4.2)
        history = daily_series([1.0] * 20)
        preds = forecast(model, history, 5)
        np.testing.assert_allclose(preds, 4.2)

    def test_ar1_hand_iteration(self):
        model = manual_model(ArimaOrder(1, 0, 0), alpha=0.0, beta=(0.7,))
        history = daily_series([0.0] * 10 + [10.0])
        preds = forecast(model, history, 3)
        np.testing.assert_allclose(preds, [7.0, 4.9, 3.43])

    def test_random_walk(self):
        model = manual_model(ArimaOrder(0, 1, 0), alpha=0.0)
        history = daily_series([3.0, 5.0, 12.0])
        preds = forecast(model, history, 4)
        np.testing.assert_allclose(preds, 12.0)

    def test_random_walk_with_drift(self):
        model = manual_model(ArimaOrder(0, 1, 0), alpha=0.5)
        history = daily_series([3.0, 5.0, 12.0])
        preds = forecast(model, history, 3)
        np.testing.assert_allclose(preds, [12.5, 13.0, 13.5])

    def test_0d0_polynomial_extrapolation(self):
        # (0,2,0) with drift: second differences constant at alpha, so the
        # forecast continues y_{n+h} = y_n + h*(y_n - y_{n-1}) + alpha*h(h+1)/2
        model = manual_model(ArimaOrder(0, 2, 0), alpha=0.25)
        values = [1.0, 2.0, 4.5, 6.0, 10.0]
        history = daily_series(values)
        preds = forecast(model, history, 6)
        slope = values[-1] - values[-2]
        expected = [
            values[-1] + h * slope + 0.25 * h * (h + 1) / 2 for h in range(1, 7)
        ]
        np.testing.assert_allclose(preds, expected, rtol=1e-9)

    def test_ma_residuals_enter_first_step(self):
        # residuals on history feed the first forecast, zero afterwards
        model = manual_model(ArimaOrder(0, 0, 1), alpha=0.0, theta=(0.5,))
        history = daily_series([1.0, -1.0, 2.0])
        z = history.values
        e = css_residuals(z, 0.0, (), (0.5,))
        preds = forecast(model, history, 2)
        assert preds[0] == pytest.approx(0.5 * e[-1])
        assert preds[1] == pytest.approx(0.0)

    def test_history_shorter_than_q_has_zero_presample_residuals(self):
        # residuals (1, 1.5) on [1, 2]; the third lag reaches before the history
        model = manual_model(ArimaOrder(0, 0, 3), alpha=0.0, theta=(0.5, 0.3, 0.2))
        preds = forecast(model, daily_series([1.0, 2.0]), 2)
        np.testing.assert_allclose(preds, [0.5 * 1.5 + 0.3 * 1.0 + 0.2 * 0.0, 0.3 * 1.5 + 0.2 * 1.0])

    def test_too_short(self):
        model = manual_model(ArimaOrder(2, 1, 0), beta=(0.1, 0.1))
        with pytest.raises(TooShortError):
            forecast(model, daily_series([1.0, 2.0, 3.0]), 1)

    def test_translation_equivariance(self):
        base = simulate_arma(0.0, [0.6], [], 1.0, 500, seed=15)
        shift = 100.0
        shifted = TimeSeries(base.granularity, base.at, base.values + shift)
        m0 = fit_arima(base, ArimaOrder(1, 0, 0))
        m1 = fit_arima(shifted, ArimaOrder(1, 0, 0))
        f0 = forecast(m0, base, 5)
        f1 = forecast(m1, shifted, 5)
        np.testing.assert_allclose(f1, f0 + shift, atol=1e-3)


class TestAic:
    def test_penalty_arithmetic(self):
        small = manual_model(ArimaOrder(1, 0, 0), beta=(0.1,), sigma2=2.0)
        large = manual_model(ArimaOrder(2, 0, 1), beta=(0.1, 0.0), theta=(0.0,), sigma2=2.0)
        assert aic(large) - aic(small) == pytest.approx(4.0)

    def test_sigma2_halving(self):
        m1 = manual_model(ArimaOrder(1, 0, 0), beta=(0.1,), sigma2=2.0)
        m2 = manual_model(ArimaOrder(1, 0, 0), beta=(0.1,), sigma2=1.0)
        assert aic(m1) - aic(m2) == pytest.approx(100 * np.log(2.0))

    def test_white_noise_prefers_small_order(self):
        wins = 0
        for seed in range(50):
            series = simulate_arma(0.0, [], [], 1.0, 200, seed=seed + 100)
            low = fit_arima(series, ArimaOrder(0, 0, 0))
            high = fit_arima(series, ArimaOrder(3, 0, 3))
            if aic(low) <= aic(high):
                wins += 1
        assert wins >= 45  # >= 90% of replications


class TestSelectOrder:
    def test_recovers_ar_structure(self):
        series = simulate_arma(0.0, [0.7], [], 1.0, 600, seed=16)
        order, model = select_order(series, 3, 1, 3)
        assert order.p >= 1
        true_model = fit_arima(series, ArimaOrder(1, 0, 0))
        # one-step in-sample RMSE close to the true-order fit
        rmse_sel = np.sqrt(model.sigma2)
        rmse_true = np.sqrt(true_model.sigma2)
        assert rmse_sel <= rmse_true * 1.1

    def test_constant_plus_tiny_noise(self):
        rng = np.random.default_rng(20)
        series = daily_series(50.0 + 1e-3 * rng.standard_normal(200))
        order, _ = select_order(series, 2, 1, 2)
        assert (order.p, order.d, order.q) == (0, 0, 0)

    def test_single_cell_grid(self):
        series = simulate_arma(0.0, [], [], 1.0, 100, seed=18)
        order, model = select_order(series, 0, 0, 0)
        assert (order.p, order.d, order.q) == (0, 0, 0)
        assert model.converged


    def test_failed_cells_are_skipped(self, monkeypatch):
        # on 4 points the larger cells are too short; (0,0,0) is made to fail its optimizer
        series = simulate_arma(0.0, [], [], 1.0, 4, seed=19)
        failures = []
        real_fit_arima = arima.fit_arima

        def failing(series, order):
            try:
                if (order.p, order.q) == (0, 0):
                    raise OptimizerFailure(f"no finite optimum for order {order}")
                return real_fit_arima(series, order)
            except (TooShortError, OptimizerFailure) as exc:
                failures.append(type(exc))
                raise

        monkeypatch.setattr(arima, "fit_arima", failing)
        order, model = select_order(series, 2, 0, 2)
        assert set(failures) == {TooShortError, OptimizerFailure}
        assert order.p + order.q + 2 <= 4 and (order.p, order.q) != (0, 0)
        assert model.converged

    def test_no_surviving_cell_raises(self):
        with pytest.raises(NoConvergedModelError):
            select_order(daily_series([40.0]), 2, 1, 2)

    def test_overflowing_css_warns_nothing(self):
        # a 1e200 reading overflows the sum of squares of the q = 0 cells and
        # the cost inside least_squares; those cells fail or lose, silently
        series = simulate_arma(12.0, [0.7], [], 1.0, 96, seed=5)
        values = series.values.copy()
        values[0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            order, model = select_order(TimeSeries(series.granularity, series.at, values), 2, 1, 2)
        assert np.isfinite(model.css)


class TestSerialization:
    def test_round_trip_bitwise(self):
        series = simulate_arma(1.0, [0.5], [0.2], 1.0, 300, seed=19)
        model = fit_arima(series, ArimaOrder(1, 0, 1))
        payload = json.dumps(model.to_dict(), indent=2)
        restored = ArimaModel.from_dict(json.loads(payload))
        assert restored == model
        assert json.dumps(restored.to_dict(), indent=2) == payload
