from __future__ import annotations

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from aircast import arima, simulate
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
)
from scipy.signal import lfilter

from aircast.errors import (
    NoConvergedModelError,
    NonStationaryError,
    OptimizerFailure,
    TooShortError,
)
from aircast.series import Granularity, TimeSeries, difference_values
from aircast.simulate import simulate_arma

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


# Oracle: the root and admissibility rules written with numpy calls. The
# float versions in `arima` round differently (a complex modulus, a quotient,
# the order of a sum), by a few ulps, so they must give the same answer (or
# raise the same error) on every input whose deciding quantity is not within
# 1e-12 relative of its threshold.

def numpy_roots(coeffs):
    deg = coeffs.size - 1
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    if deg == 0:
        return np.empty(0)
    if deg == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = np.emath.sqrt(b * b - 4.0 * a * c)
        return np.array([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)])
    companion = np.zeros((deg, deg))
    companion[0, :] = -coeffs[deg - 1 :: -1] / coeffs[deg]
    companion[1:, :-1] = np.eye(deg - 1)
    return np.linalg.eigvals(companion)


def numpy_min_root_modulus(ascending):
    roots = numpy_roots(np.asarray(ascending, dtype=np.float64))
    return float(np.min(np.abs(roots))) if roots.size else np.inf


def numpy_ar_is_stationary(beta):
    return numpy_min_root_modulus([1.0, *(-b for b in beta)]) > 1.0


def numpy_ma_is_invertible(theta):
    return numpy_min_root_modulus([1.0, *theta]) > 1.0


def numpy_ma_strictly_noninvertible(theta, tol=1e-9):
    if np.sum(np.abs(theta)) < 1.0:
        return False
    return numpy_min_root_modulus(np.concatenate([[1.0], theta])) < 1.0 - tol


def numpy_redundancy_ratios(beta, theta):
    """|AR root - MA root| / max(1, |MA root|) for every pair of roots."""
    ar_roots = numpy_roots(np.concatenate([[1.0], -beta]))
    ma_roots = numpy_roots(np.concatenate([[1.0], theta]))
    dist = np.abs(ar_roots[:, None] - ma_roots[None, :])
    scale = np.maximum(1.0, np.abs(ma_roots))[None, :]
    return (dist / scale).ravel()


def numpy_arma_redundant(beta, theta):
    if np.sum(np.abs(beta)) < 0.3 or np.sum(np.abs(theta)) < 0.3:
        return False
    return bool(np.any(numpy_redundancy_ratios(beta, theta) < 0.2))


def numpy_inadmissible(params, p):
    theta = params[1 + p :]
    return numpy_ma_strictly_noninvertible(theta) or (
        p > 0 and numpy_arma_redundant(params[1 : 1 + p], theta)
    )


def numpy_inadmissible_deciders(params, p):
    """(quantity, threshold) for each comparison ``numpy_inadmissible`` can make."""
    beta, theta = params[1 : 1 + p], params[1 + p :]
    deciders = [
        (np.sum(np.abs(theta)), 1.0),
        (numpy_min_root_modulus(np.concatenate([[1.0], theta])), 1.0 - 1e-9),
    ]
    if p > 0:
        deciders += [(np.sum(np.abs(beta)), 0.3), (np.sum(np.abs(theta)), 0.3)]
        deciders += [(ratio, 0.2) for ratio in numpy_redundancy_ratios(beta, theta)]
    return deciders


def near_a_threshold(deciders):
    """True when a deciding quantity lies within 1e-12 relative of its
    threshold, where a few ulps of rounding may flip the comparison. An
    oracle that raised decides nothing."""
    if isinstance(deciders, type):
        return False
    return any(abs(quantity - threshold) <= 1e-12 * threshold for quantity, threshold in deciders)


def assert_agree(got, expected, deciders):
    """Equal outcomes; near a threshold, any two bools."""
    if near_a_threshold(deciders) and all(isinstance(x, bool) for x in (got, expected)):
        return
    assert got == expected


def outcome(rule, *args):
    """The rule's answer, or the type of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return rule(*args)
    except Exception as exc:  # noqa: BLE001 (both sides must fail alike)
        return type(exc)


# MA-side coefficients (theta_1..theta_k of 1 + theta_1 x + ...): degrees 0-4
coefficient = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.5, 1.0, -1.0, 2.0, 1e-300, 1e155, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
EDGE_POLYNOMIALS = [
    (1.0,), (-1.0,),                 # a real root on the unit circle
    (2.0, 1.0), (-2.0, 1.0),         # a double root on it
    (0.0, 1.0), (0.0, -1.0),         # +-i, and +-1
    (1.0, 1.0, 1.0),                 # -1 and +-i, by eigenvalues
    (0.0, 0.0, 0.0, 1.0),            # four roots on the circle
    (-1.0, 0.25),                    # double root 2: discriminant exactly 0
    (0.5, 0.5), (0.25, -0.75), (1.0, 0.0),  # sum |theta| exactly 1.0
    (0.3,), (-0.3, 0.0), (0.15, 0.15),      # sum exactly 0.3
    (0.1, 0.2), (0.2, 0.1),                 # one ulp above 0.3
    (0.5, 0.0, 0.0, 0.0), (0.0, 0.0),       # zero leading coefficients
    (math.inf,), (math.nan, 0.5), (0.5, -math.inf, 0.2), (0.1, 0.2, math.nan, 1.0),
]
polynomial = st.one_of(
    st.lists(coefficient, max_size=4).map(tuple),
    st.sampled_from(EDGE_POLYNOMIALS),
    # (1 - kx)^2 with k dyadic: a double root, discriminant exactly 0
    st.integers(-24, 24).map(lambda m: (-2.0 * (m / 8), (m / 8) ** 2)),
    # roots exp(+-i phi), on the unit circle up to rounding
    st.floats(0.0, math.pi).map(lambda phi: (-2.0 * math.cos(phi), 1.0)),
    # zero leading coefficients after a random polynomial
    st.tuples(st.lists(coefficient, min_size=1, max_size=2), st.integers(1, 2)).map(
        lambda t: (*t[0], *[0.0] * t[1])
    ),
)


def negated(coeffs):
    return tuple(-c for c in coeffs)


class TestRootFlags:
    """Stationarity and invertibility against numpy's own root finder."""

    def test_agree_with_np_roots(self, rng):
        for _ in range(500):
            ascending = polynomial_with_roots(rng)
            expected = bool(np.all(np.abs(np.roots(ascending[::-1])) > 1.0))
            assert ar_is_stationary(-ascending[1:]) == expected
            assert ma_is_invertible(ascending[1:]) == expected

    @settings(max_examples=600)
    @given(
        alpha=st.floats(-10.0, 10.0),
        theta=polynomial,
        beta=st.one_of(polynomial.map(negated), polynomial),
        shared=st.one_of(st.none(), st.floats(-0.5, 0.5)),
    )
    @example(alpha=0.0, theta=(0.5, 0.5), beta=(-0.5, -0.5), shared=None)
    @example(alpha=0.0, theta=(-1.0, 0.25), beta=(1.0, -0.25), shared=0.0)
    @example(alpha=0.0, theta=(0.15, 0.15), beta=(0.3,), shared=None)
    @example(alpha=0.0, theta=(1.0, 1.0, 1.0), beta=(-1.0, -1.0, -1.0), shared=None)
    # just past a threshold but outside the band, where the answer must match:
    # sums of 0.31 with cancelling roots, and an MA root at 1/1.02
    @example(alpha=0.0, theta=(-0.31,), beta=(0.31,), shared=None)
    @example(alpha=0.0, theta=(1.02,), beta=(), shared=None)
    def test_float_rules_match_the_numpy_oracle(self, alpha, theta, beta, shared):
        if shared is not None and beta:
            # an MA polynomial near the AR one: roots near-cancel, around the tolerance
            theta = tuple(-b + shared * i for i, b in enumerate(beta))
        for coeffs in (theta, beta):
            for rule, oracle, ascending in (
                (ar_is_stationary, numpy_ar_is_stationary, [1.0, *negated(coeffs)]),
                (ma_is_invertible, numpy_ma_is_invertible, [1.0, *coeffs]),
            ):
                deciders = outcome(lambda: [(numpy_min_root_modulus(ascending), 1.0)])
                assert_agree(outcome(rule, coeffs), outcome(oracle, coeffs), deciders)
        params = [alpha, *beta, *theta]
        assert_agree(
            outcome(arima._inadmissible, params, len(beta)),
            outcome(numpy_inadmissible, np.array(params), len(beta)),
            outcome(numpy_inadmissible_deciders, np.array(params), len(beta)),
        )


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


def lfilter_simulation(alpha, beta, theta, sigma, n, seed):
    """Oracle: simulate_arma's draws passed through scipy.signal.lfilter."""
    w = sigma * np.random.default_rng(seed).standard_normal(simulate._BURN_IN + n)
    x = alpha + lfilter([1.0, *theta], [1.0], w)
    return lfilter([1.0], [1.0, *(-b for b in beta)], x)[simulate._BURN_IN :]


class TestSimulateIsLfilter:
    """simulate_arma's filters keep lfilter's arithmetic, so every seed gives
    the series it gave when it called lfilter."""

    def test_roster(self):
        from aircast.simulate import STATION_SIM_PARAMS

        for seed, sim in enumerate(STATION_SIM_PARAMS.values()):
            params = (sim.alpha, sim.beta, sim.theta, sim.sigma, 540, seed)
            assert np.array_equal(simulate_arma(*params).values, lfilter_simulation(*params))

    def test_random_draws(self):
        rng = np.random.default_rng(2024)
        for seed in range(300):
            p, q = rng.integers(0, 5, size=2)
            beta = rng.uniform(-0.5, 0.5, p) / max(p, 1) * 2
            theta = rng.uniform(-1.5, 1.5, q)
            alpha, sigma = rng.normal(0.0, 20.0), rng.uniform(0.1, 5.0)
            n = int(rng.integers(p + q + 1, 400))
            series = simulate_arma(alpha, beta, theta, sigma, n, seed=seed)
            assert np.array_equal(
                series.values, lfilter_simulation(alpha, beta, theta, sigma, n, seed)
            ), (seed, beta, theta)


class TestMaInverse:
    """The CSS residuals and their Jacobian come from one banded triangular
    solve; lfilter, the recursion they replace, is the oracle. The two sum in
    different orders, so each value agrees to within 1e-12 of its column's
    largest value."""

    @staticmethod
    def assert_close_to_lfilter(got, theta, rhs):
        expected = lfilter([1.0], [1.0, *theta], rhs, axis=0)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.max(np.abs(expected), axis=0))

    @pytest.mark.parametrize("n", [430, 10_366])
    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("p", [0, 2])
    def test_css_errors_and_jacobian_match_lfilter(self, n, q, p):
        z = simulate_arma(30.0, [0.6, 0.2], [0.4], 4.0, n, seed=n + q).values
        lags = arima._lag_matrix(z, p)
        rng = np.random.default_rng(10 * q + p)
        for _ in range(5):
            theta = rng.uniform(-0.9, 0.9, q) / q
            params = np.concatenate([[rng.normal(30.0, 5.0)], rng.uniform(-0.4, 0.4, p), theta])
            u = z[p:] - params[0] - lags @ params[1 : 1 + p]
            e = arima._css_errors(params, z, lags)
            self.assert_close_to_lfilter(e, theta, u)

            jac = arima._css_jacobian(params, e, lags, q)
            cols = np.column_stack([np.ones(e.size), lags] + [
                np.concatenate([np.zeros(j), e[:-j]]) for j in range(1, q + 1)
            ])
            self.assert_close_to_lfilter(-jac, theta, cols)

    @pytest.mark.parametrize("theta", [(3.0,), (-2.5,), (4.0, 5.0), (0.5, -0.2, 0.1, 0.3, 40.0)])
    def test_noninvertible_theta_overflows_where_lfilter_does(self, theta):
        assert not arima.ma_is_invertible(theta)
        z = simulate_arma(5.0, [0.5], [], 1.0, 1000, seed=7).values
        params = np.array([5.0, *theta])
        with np.errstate(over="ignore", invalid="ignore"):
            e = arima._css_errors(params, z, arima._lag_matrix(z, 0))
            expected = lfilter([1.0], [1.0, *theta], z - 5.0)
        finite = np.isfinite(expected)
        assert not finite.all()  # the recursion overflowed, so the test means something
        np.testing.assert_array_equal(np.isfinite(e), finite)

    def test_a_refused_argument_raises(self, monkeypatch):
        monkeypatch.setattr(arima, "dtbtrs", lambda band, b, **kwargs: (b, -4))
        with pytest.raises(RuntimeError, match="argument 4"):
            arima._ma_inverse(np.array([0.5]), np.ones(3))

    @pytest.mark.parametrize("order", [ArimaOrder(0, 0, 3), ArimaOrder(1, 1, 5), ArimaOrder(2, 1, 4)])
    def test_band_wider_than_the_residuals(self, order):
        """n - d - p <= q: the band has more rows than the residual vector."""
        p, d, q = order.p, order.d, order.q
        history = daily_series([1.0, 2.5, 2.0, 4.0][: p + d + 2])
        rng = np.random.default_rng(q)
        model = manual_model(order, alpha=0.3, beta=rng.uniform(-0.5, 0.5, p),
                             theta=rng.uniform(-0.4, 0.4, q))
        z = difference_values(history.values, d)
        e = css_residuals(z, model.alpha, model.beta, model.theta)
        assert e.size <= q
        np.testing.assert_array_equal(
            arima._css_errors(np.array([model.alpha, *model.beta, *model.theta]),
                              z, arima._lag_matrix(z, p)), e)
        padded = np.concatenate([np.zeros(q - e.size), e])
        step = model.alpha + sum(b * z[-i] for i, b in enumerate(model.beta, start=1)) + sum(
            t * padded[-j] for j, t in enumerate(model.theta, start=1))
        expected = step + (history.values[-1] if d else 0.0)
        assert forecast(model, history, 1)[0] == pytest.approx(expected, rel=1e-12)


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


def numpy_nelder_mead(z, lags, q):
    """Oracle: the two-start Nelder-Mead with the objective written with numpy
    calls (finiteness test, ``numpy_inadmissible``, warnings silenced per
    call), run through scipy.optimize.minimize with the same options."""
    p = lags.shape[1]

    def objective(params):
        if not np.all(np.isfinite(params)) or numpy_inadmissible(params, p):
            return np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            e = arima._css_errors(params, z, lags)
            css = float(np.dot(e, e))
        return css if np.isfinite(css) else np.inf

    best = None
    for x0 in [np.zeros(1 + p + q), arima._ols_start(z, lags, q)]:
        result = minimize(objective, x0, method="Nelder-Mead", options={
            "maxiter": 2000, "maxfev": 4000, "xatol": 1e-8, "fatol": 1e-8,
        })
        if best is None or result.fun < best.fun:
            best = result
    return best.x, float(best.fun), bool(best.success)


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

    @pytest.mark.parametrize("n,seed,order", [
        pytest.param(200, 100, ArimaOrder(2, 0, 2), id="redundant-fallback"),
        pytest.param(5, 101, ArimaOrder(2, 0, 1), id="too-few-residuals"),
        pytest.param(200, 100, ArimaOrder(3, 0, 3), id="white-noise-303"),
    ])
    def test_nelder_mead_bitwise_equal_to_the_numpy_objective(self, n, seed, order):
        series = simulate_arma(0.0, [], [], 1.0, n, seed=seed)
        z = difference_values(series.values, order.d)
        lags = arima._lag_matrix(z, order.p)
        x, fun, success = arima._css_nelder_mead(z, lags, order.q)
        x_oracle, fun_oracle, success_oracle = numpy_nelder_mead(z, lags, order.q)
        assert x.tobytes() == x_oracle.tobytes()
        assert (fun, success) == (fun_oracle, success_oracle)


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

    @pytest.mark.parametrize("station", [
        "Rusororo", "Gacuriro", "Gikondo Mburabuturo", "Kiyovu",
    ])
    def test_same_selection_under_the_numpy_oracle(self, monkeypatch, station):
        """The float root rules round differently from numpy's only near a
        threshold; on roster data, Nelder-Mead fallbacks included, every
        selected order and fit is the one the numpy rules give."""
        from aircast.simulate import STATION_SIM_PARAMS

        sim = STATION_SIM_PARAMS[station]
        series = simulate_arma(sim.alpha, sim.beta, sim.theta, sim.sigma, 432, seed=432)
        selected = select_order(series, 2, 1, 2)

        calls = []

        def oracle_inadmissible(params, p):
            calls.append(p)
            return numpy_inadmissible(np.array(params), p)

        monkeypatch.setattr(arima, "_inadmissible", oracle_inadmissible)
        monkeypatch.setattr(arima, "ar_is_stationary", numpy_ar_is_stationary)
        monkeypatch.setattr(arima, "ma_is_invertible", numpy_ma_is_invertible)
        assert select_order(series, 2, 1, 2) == selected
        assert len(calls) > 100  # more than one per cell: Nelder-Mead ran

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


class TestCompanionOverflow:
    """A tiny last MA coefficient overflows the companion matrix, so the root
    rules raise LinAlgError as numpy's do; a fit scores such parameters +inf in
    Nelder-Mead and reports an optimum there as a failed cell."""

    OVERFLOWING = (0.0, 1.2, 0.3, 1e-310)  # (alpha, theta) of an MA(3)
    ORDER = ArimaOrder(0, 0, 3)

    def test_root_rules_raise(self):
        with pytest.raises(np.linalg.LinAlgError):
            ma_is_invertible(self.OVERFLOWING[1:])
        with pytest.raises(np.linalg.LinAlgError):
            arima._inadmissible(list(self.OVERFLOWING), 0)

    def test_least_squares_optimum_there_is_a_failed_fit(self, monkeypatch):
        series = simulate_arma(0.0, [], [], 1.0, 60, seed=7)
        solved = SimpleNamespace(status=1, x=np.array(self.OVERFLOWING), fun=np.zeros(60))
        monkeypatch.setattr(arima, "least_squares", lambda *args, **kwargs: solved)
        monkeypatch.setattr(arima, "minimize", None)  # no fallback runs
        with pytest.raises(OptimizerFailure, match="no usable optimum"):
            fit_arima(series, self.ORDER)

    def test_nelder_mead_scores_it_inf_and_the_cell_fails(self, monkeypatch):
        series = simulate_arma(0.0, [], [], 1.0, 60, seed=7)
        scores = []

        def solver(objective, x0, **kwargs):
            scores.append(objective(np.array(self.OVERFLOWING)))
            scores.append(objective(np.zeros_like(x0)))
            return SimpleNamespace(x=np.array(self.OVERFLOWING), fun=1.0, success=True)

        monkeypatch.setattr(arima, "least_squares", lambda *args, **kwargs: SimpleNamespace(status=0, x=None))
        monkeypatch.setattr(arima, "minimize", solver)
        with pytest.raises(OptimizerFailure, match="no usable optimum"):
            fit_arima(series, self.ORDER)
        assert scores[0] == math.inf and math.isfinite(scores[1])

        # in a grid search the cell fails and the others still compete
        order, model = select_order(series, 0, 0, 3)
        assert (order.p, order.d, order.q) == (0, 0, 0)


class TestSerialization:
    def test_round_trip_bitwise(self):
        series = simulate_arma(1.0, [0.5], [0.2], 1.0, 300, seed=19)
        model = fit_arima(series, ArimaOrder(1, 0, 1))
        payload = json.dumps(model.to_dict(), indent=2)
        restored = ArimaModel.from_dict(json.loads(payload))
        assert restored == model
        assert json.dumps(restored.to_dict(), indent=2) == payload
