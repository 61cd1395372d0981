"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from aircast import ann, arima, gp, simulate, trends
from aircast.cli import main
from aircast.evaluation import mae, rmse
from aircast.series import Granularity, TimeSeries, difference, inverse_difference

from conftest import BASE_EPOCH, DAY, daily_series, hourly_series
from test_ann import max_relative_error, numeric_gradient, random_net
from test_gp import dense_lml_oracle, dense_posterior_oracle, random_instance
from test_trends import quantile_oracle


def passline(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_criterion_1_arima_parameter_recovery():
    start = time.monotonic()
    errors = []
    for seed in range(20):
        series = simulate.simulate_arma(0.0, [0.7], [], 1.0, 2000, seed=seed)
        model = arima.fit_arima(series, arima.ArimaOrder(1, 0, 0))
        errors.append(abs(model.beta[0] - 0.7))
    elapsed = time.monotonic() - start
    assert float(np.mean(errors)) < 0.03
    assert max(errors) < 0.05
    assert elapsed < 10.0
    passline(1, f"AR(1) recovery mean err {np.mean(errors):.4f}, "
                f"max {max(errors):.4f}, {elapsed:.2f}s")


def test_criterion_2_ma_moments_monte_carlo():
    start = time.monotonic()
    _, variance = arima.ma_unconditional_moments(0.0, [0.5], 1.0)
    draws = simulate.simulate_arma(0.0, [], [0.5], 1.0, 100_000, seed=2024)
    sample = float(np.var(draws.values))
    elapsed = time.monotonic() - start
    assert abs(sample - variance) / variance < 0.05
    assert elapsed < 2.0
    passline(2, f"MA(1) variance {variance} vs Monte-Carlo {sample:.4f}, {elapsed:.2f}s")


def test_criterion_3_gp_against_dense_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(314)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        x, y, params, noise = random_instance(rng, n)
        model = gp.fit_gp(x, y, params, noise)
        test_x = rng.uniform(-5, 70, 4)
        means, variances = gp.posterior(model, test_x)
        m_or, v_or = dense_posterior_oracle(x, y, params, noise, model.jitter, test_x)
        assert np.max(np.abs(means - m_or)) < 1e-8
        assert np.max(np.abs(variances - np.maximum(v_or, 0.0))) < 1e-8
        A = gp.gram_matrix(x, params) + (noise + model.jitter) * np.eye(n)
        assert abs(gp.log_marginal_likelihood(model) - dense_lml_oracle(y, A)) < 1e-8
    # noise-free interpolation
    x = np.linspace(0, 20, 12)
    y = np.sin(x / 3.0) * 20 + 40
    model = gp.fit_gp(x, y, gp.SeKernelParams(5.0, 4.0), 0.0)
    means, _ = gp.posterior(model, x)
    assert np.max(np.abs(means - y)) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    passline(3, f"50 posterior/LML oracle matches at 1e-8, interpolation at 1e-6, {elapsed:.2f}s")


def test_criterion_4_ann_gradient_check():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = random_net(rng, window=4, hidden=5, activation_kind=ann.Activation.TANH)
        batch = [(rng.uniform(-2, 2, 4), float(rng.uniform(-2, 2))) for _ in range(6)]
        analytic = ann.gradient(net, batch)
        numeric = numeric_gradient(net, batch)
        worst = max(
            worst,
            max_relative_error(analytic[0], numeric[0]),
            max_relative_error(analytic[1], numeric[1]),
        )
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    passline(4, f"20 networks, worst per-coordinate relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_metrics_against_two_pass_oracle():
    from test_evaluation import two_pass_mae, two_pass_rmse

    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        actual = rng.uniform(-100, 100, n)
        predicted = rng.uniform(-100, 100, n)
        r, m = rmse(actual, predicted), mae(actual, predicted)
        assert abs(r - two_pass_rmse(actual, predicted)) < 1e-12
        assert abs(m - two_pass_mae(actual, predicted)) < 1e-12
        assert r >= m
    passline(5, "rmse/mae equal two-pass oracle at 1e-12 and rmse >= mae on 100 pairs")


def test_criterion_6_trend_oracle_equivalence():
    from datetime import datetime

    from aircast.series import LOCAL_TZ

    rng = np.random.default_rng(66)

    hourly = hourly_series(rng.uniform(1, 150, 24 * 365))
    profile = trends.hour_of_day_profile(hourly)
    by_hour: dict[int, list[float]] = {}
    for t, v in zip(hourly.at.tolist(), hourly.values.tolist()):
        by_hour.setdefault(datetime.fromtimestamp(t, tz=LOCAL_TZ).hour, []).append(v)
    for hour, values in by_hour.items():
        summary = profile[hour]
        assert summary is not None
        for got, p in ((summary.q1, 0.25), (summary.median, 0.5), (summary.q3, 0.75)):
            assert abs(got - quantile_oracle(values, p)) < 1e-12 * max(1.0, abs(got))

    daily = daily_series(rng.uniform(1, 150, 365))
    weekday_profile = trends.day_of_week_profile(daily)
    by_weekday: dict[int, list[float]] = {}
    by_date = {}
    by_season: dict[trends.Season, list[float]] = {}
    for t, v in zip(daily.at.tolist(), daily.values.tolist()):
        day = datetime.fromtimestamp(t, tz=LOCAL_TZ).date()
        by_weekday.setdefault(day.weekday(), []).append(v)
        by_date[day] = v
        by_season.setdefault(trends.season_of(day.month), []).append(v)
    for weekday, values in by_weekday.items():
        summary = weekday_profile[weekday]
        assert summary is not None
        assert abs(summary.median - quantile_oracle(values, 0.5)) < 1e-12

    grid = trends.calendar_daily_means(daily)
    assert dict(grid.sorted_items()) == by_date

    means = trends.seasonal_means(daily)
    for season, values in by_season.items():
        mean, count = means[season]
        assert count == len(values)
        assert abs(mean - sum(values) / len(values)) < 1e-12

    partition = {}
    for month in range(1, 13):
        partition.setdefault(trends.season_of(month), []).append(month)
    assert partition[trends.Season.LONG_DRY] == [6, 7, 8]
    assert partition[trends.Season.SHORT_RAINY] == [9, 10, 11]
    assert partition[trends.Season.SHORT_DRY] == [1, 2, 12]
    assert partition[trends.Season.LONG_RAINY] == [3, 4, 5]
    passline(6, "hourly/weekday/calendar/seasonal aggregations equal brute-force regroup at 1e-12")


def test_criterion_7_round_trips():
    rng = np.random.default_rng(77)
    values = rng.uniform(-50, 150, 80)
    series = daily_series(values)
    for d in range(3):
        diffed = difference(series, d)
        restored = inverse_difference(diffed, series.values[:d], d)
        scale = np.maximum(np.abs(series.values[d:]), 1.0)
        assert np.max(np.abs(restored.values - series.values[d:]) / scale) < 1e-9

    sim = simulate.simulate_arma(1.0, [0.5], [0.2], 1.0, 300, seed=7)
    arima_model = arima.fit_arima(sim, arima.ArimaOrder(1, 0, 1))
    payload = json.dumps(arima_model.to_dict(), indent=2)
    assert json.dumps(arima.ArimaModel.from_dict(json.loads(payload)).to_dict(), indent=2) == payload

    net = ann.train(daily_series(rng.uniform(10, 90, 50)), 4, 6,
                    ann.Activation.TANH, ann.TrainConfig(epochs=10, seed=7))
    payload = json.dumps(net.to_dict(), indent=2)
    assert json.dumps(ann.MlpForecaster.from_dict(json.loads(payload)).to_dict(), indent=2) == payload

    model = gp.fit_gp(np.arange(15.0), rng.uniform(20, 60, 15), gp.SeKernelParams(2.0, 5.0), 0.1)
    payload = json.dumps(model.to_summary_dict(), indent=2)
    assert json.dumps(json.loads(payload), indent=2) == payload
    passline(7, "difference/inverse identity at 1e-9; ARIMA/ANN/GP JSON round trips bitwise")


def test_criterion_8_end_to_end_protocol(tmp_path):
    start = time.monotonic()
    out = str(tmp_path)
    assert main(["simulate", "--out", out, "--seed", "0"]) == 0
    assert main(["ingest", "--out", out, "--input", f"{out}/simulated_readings.csv"]) == 0
    assert main(["trend", "--out", out]) == 0
    assert main(["evaluate", "--out", out, "--seed", "0"]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0

    report = json.loads((tmp_path / "evaluation" / "evaluation_report.json").read_text())
    stations = {entry["station"]: entry for entry in report["stations"]}
    assert len(stations) == 9

    header = (tmp_path / "evaluation" / "comparison.csv").read_text().splitlines()[0]
    assert header == "station,rmse_arima,rmse_ann,rmse_gpr,mae_arima,mae_ann,mae_gpr"

    # Gitega is simulated as pure AR(1) with sigma = 1
    gitega = stations["Gitega"]["models"]
    arima_rmse = gitega["arima"]["rmse"]
    gp_rmse = gitega["gp"]["rmse"]
    assert abs(arima_rmse - 1.0) < 0.1
    assert arima_rmse <= gp_rmse
    passline(8, f"9-station e2e in {elapsed:.1f}s; Gitega ARIMA rmse {arima_rmse:.3f} "
                f"within 10% of 1.0 and <= GP rmse {gp_rmse:.3f}")


def test_criterion_9_no_leakage_mutation():
    series = simulate.simulate_arma(12.0, [0.7], [], 1.0, 60, seed=9)
    from aircast.evaluation import ArimaAdapter, rolling_one_step
    from aircast.series import SplitSpec, split_holdout

    train, test = split_holdout(series, SplitSpec(count=12))
    adapter = ArimaAdapter(order=arima.ArimaOrder(1, 0, 0))
    adapter.fit(train)
    predictions, _ = rolling_one_step(adapter, train, test)

    cut = 7
    corrupted_values = test.values.copy()
    corrupted_values[cut:] = -123456.0
    corrupted = TimeSeries(test.granularity, test.at, corrupted_values)
    corrupted_predictions, _ = rolling_one_step(adapter, train, corrupted)
    assert np.array_equal(predictions[:cut], corrupted_predictions[:cut])
    passline(9, "corrupting future holdout values leaves earlier predictions bitwise unchanged")
