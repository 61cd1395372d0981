from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircast import ann, arima, evaluation, gp
from aircast.errors import (
    AircastError,
    EmptyInputError,
    EvaluationError,
    LengthMismatchError,
    TooLongError,
)
from aircast.evaluation import (
    AnnAdapter,
    ArimaAdapter,
    EvalReport,
    Forecaster,
    GpAdapter,
    ModelEval,
    comparison_table,
    compare_models,
    fit_or_load,
    mae,
    rmse,
    rolling_one_step,
)
from aircast.reference import REPORTED_MODEL_COMPARISON
from aircast.series import (
    SplitSpec,
    TimeSeries,
    append_observation,
    instants_after,
    split_holdout,
)

from conftest import daily_series


def two_pass_rmse(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += (a - p) ** 2
    return math.sqrt(total / len(actual))


def two_pass_mae(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += abs(a - p)
    return total / len(actual)


pair_strategy = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    )
)


class TestMetrics:
    def test_zero_on_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(math.sqrt(4 / 3), rel=1e-12)
        assert mae([1, 2, 3], [1, 2, 5]) == pytest.approx(2 / 3, rel=1e-12)

    def test_permutation_invariance(self, rng):
        a = rng.uniform(0, 10, 12)
        p = rng.uniform(0, 10, 12)
        perm = rng.permutation(12)
        assert rmse(a, p) == pytest.approx(rmse(a[perm], p[perm]), rel=1e-12)
        assert mae(a, p) == pytest.approx(mae(a[perm], p[perm]), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mae([], [])

    def test_rmse_of_errors_whose_squares_overflow_is_finite(self):
        assert rmse([1e200, 0.0], [0.0, 0.0]) == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)

    @given(pair_strategy)
    def test_rmse_at_least_mae(self, pair):
        actual, predicted = pair
        assert rmse(actual, predicted) >= mae(actual, predicted) - 1e-12

    @given(pair_strategy)
    def test_matches_two_pass_oracle(self, pair):
        actual, predicted = pair
        assert rmse(actual, predicted) == pytest.approx(
            two_pass_rmse(actual, predicted), abs=1e-12, rel=1e-12
        )
        assert mae(actual, predicted) == pytest.approx(
            two_pass_mae(actual, predicted), abs=1e-12, rel=1e-12
        )


class NaiveAdapter(Forecaster):
    """Persistence baseline: predicts the last observed value."""

    name = "naive"

    def fit(self, train):
        pass

    def forecast(self, history, at):
        return np.full(len(at), history.values[-1]), None

    def to_dict(self):
        return {}

    def load(self, data, train):
        pass


class CountingAdapter:
    """Naive forecaster that counts fit calls and remembers history lengths."""

    name = "counting"

    def __init__(self):
        self.fit_calls = 0
        self.history_lengths = []

    def fit(self, train):
        self.fit_calls += 1

    def predict_one(self, history, at):
        self.history_lengths.append(len(history))
        return float(history.values[-1])


class FailingAdapter:
    name = "failing"

    def fit(self, train):
        raise arima.TooShortError("boom") if False else _raise()

    def predict_one(self, history, at):  # pragma: no cover
        return 0.0


def _raise():
    from aircast.errors import TooShortError

    raise TooShortError("deliberate failure")


class TestRollingOneStep:
    def test_naive_enumeration(self):
        series = daily_series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        train = TimeSeries(series.granularity, series.at[:4], series.values[:4])
        test = TimeSeries(series.granularity, series.at[4:], series.values[4:])
        adapter = NaiveAdapter()
        adapter.fit(train)
        predictions, actuals = rolling_one_step(adapter, train, test)
        np.testing.assert_array_equal(predictions, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(actuals, [5.0, 6.0, 7.0])

    def test_constant_series_zero_error(self):
        series = daily_series([9.0] * 30)
        train, test = split_holdout(series, SplitSpec(fraction=0.2))
        adapter = NaiveAdapter()
        adapter.fit(train)
        predictions, actuals = rolling_one_step(adapter, train, test)
        assert rmse(actuals, predictions) == 0.0

    def test_ar1_one_step_error_near_sigma(self):
        series = arima.simulate_arma(0.0, [0.7], [], 1.0, 2200, seed=21)
        train, test = split_holdout(series, SplitSpec(count=200))
        adapter = ArimaAdapter(order=arima.ArimaOrder(1, 0, 0))
        adapter.fit(train)
        predictions, actuals = rolling_one_step(adapter, train, test)
        assert abs(rmse(actuals, predictions) - 1.0) < 0.1

    def test_no_leakage_under_future_mutation(self):
        series = daily_series(np.sin(np.arange(40) / 5.0) * 10 + 30)
        train, test = split_holdout(series, SplitSpec(count=10))
        adapter = ArimaAdapter(order=arima.ArimaOrder(1, 0, 0))
        adapter.fit(train)
        predictions, _ = rolling_one_step(adapter, train, test)

        cut = 6
        corrupted_values = test.values.copy()
        corrupted_values[cut:] = 9999.0
        corrupted = TimeSeries(test.granularity, test.at, corrupted_values)
        corrupted_predictions, _ = rolling_one_step(adapter, train, corrupted)
        np.testing.assert_array_equal(predictions[:cut], corrupted_predictions[:cut])

    def test_prediction_sees_growing_history(self):
        series = daily_series(np.arange(30.0))
        train, test = split_holdout(series, SplitSpec(count=5))
        adapter = CountingAdapter()
        adapter.fit(train)
        rolling_one_step(adapter, train, test)
        assert adapter.history_lengths == [25, 26, 27, 28, 29]

    def test_adapter_error_carries_index(self):
        class ExplodingAdapter:
            name = "exploding"

            def fit(self, train):
                pass

            def predict_one(self, history, at):
                if len(history) >= 27:
                    _raise()
                return 0.0

        series = daily_series(np.arange(30.0))
        train, test = split_holdout(series, SplitSpec(count=5))
        adapter = ExplodingAdapter()
        with pytest.raises(EvaluationError, match="test index 2"):
            rolling_one_step(adapter, train, test)


class TestCompareModels:
    def test_naive_on_constant(self):
        series = daily_series([7.0] * 40)
        report = compare_models(series, SplitSpec(fraction=0.2), [NaiveAdapter()], station="X")
        ev = report.models["naive"]
        assert ev.rmse == 0.0 and ev.mae == 0.0

    def test_three_models_on_ar1(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 140, seed=22)
        adapters = [
            ArimaAdapter(order=arima.ArimaOrder(1, 0, 0)),
            AnnAdapter(config=ann.TrainConfig(seed=1, epochs=50)),
            GpAdapter(),
        ]
        report = compare_models(series, SplitSpec(fraction=0.2), adapters, station="Gitega")
        assert set(report.models) == {"arima", "ann", "gp"}
        for ev in report.models.values():
            assert ev.rmse >= ev.mae >= 0.0
            assert len(ev.predictions) == len(ev.actuals) == 28

    def test_fit_called_exactly_once(self):
        series = daily_series(np.arange(50.0))
        adapter = CountingAdapter()
        compare_models(series, SplitSpec(fraction=0.2), [adapter])
        assert adapter.fit_calls == 1

    def test_per_model_failure_recorded_not_fatal(self):
        series = daily_series([7.0] * 40)
        report = compare_models(
            series, SplitSpec(fraction=0.2), [FailingAdapter(), NaiveAdapter()]
        )
        assert "failing" in report.errors
        assert "naive" in report.models

    def test_deterministic_given_seeds(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 120, seed=23)

        def run():
            adapters = [
                ArimaAdapter(order=arima.ArimaOrder(1, 0, 0)),
                AnnAdapter(config=ann.TrainConfig(seed=5, epochs=30)),
            ]
            report = compare_models(series, SplitSpec(fraction=0.2), adapters, station="S")
            return json.dumps(report.to_dict())

        assert run() == run()

    def test_empty_model_set_rejected(self):
        with pytest.raises(ValueError):
            compare_models(daily_series(np.arange(40.0)), SplitSpec(fraction=0.2), [])


def gp_oracle_step(model, base_at, history, at):
    """A full fit_gp on the history and the posterior mean at the instant ``at``."""
    x = (history.at - base_at) / 86_400.0
    refit = gp.fit_gp(x, history.values, model.params, model.noise_variance)
    return float(gp.posterior(refit, [(at - base_at) / 86_400.0])[0][0])


@pytest.fixture
def fit_gp_calls(monkeypatch):
    """Sizes of the training sets passed to gp.fit_gp while the test runs."""
    calls = []
    real_fit_gp = gp.fit_gp

    def counting(*args):
        calls.append(len(args[0]))
        return real_fit_gp(*args)

    monkeypatch.setattr(gp, "fit_gp", counting)
    return calls


class TestGpAdapter:
    def test_rolling_matches_per_step_refit(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 160, seed=24)
        train, test = split_holdout(series, SplitSpec(fraction=0.25))
        adapter = GpAdapter()
        adapter.fit(train)
        trained = adapter.model
        predictions, _ = rolling_one_step(adapter, train, test)
        assert len(adapter.model) == len(series) - 1

        history, expected = train, []
        for i in range(len(test)):
            expected.append(gp_oracle_step(trained, int(train.at[0]), history, int(test.at[i])))
            history = append_observation(history, int(test.at[i]), float(test.values[i]))
        np.testing.assert_allclose(predictions, expected, rtol=1e-12)

    def test_prediction_after_a_gap_is_at_the_held_out_instant(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 80, seed=30)
        kept = np.r_[0:66, 72:80]  # six days missing from the holdout
        gapped = TimeSeries(series.granularity, series.at[kept], series.values[kept])
        train, test = split_holdout(gapped, SplitSpec(count=14))
        adapter = GpAdapter()
        adapter.fit(train)
        trained = adapter.model
        predictions, _ = rolling_one_step(adapter, train, test)

        after = 6  # test.at[6] is the first instant after the gap
        assert test.at[after] - test.at[after - 1] == 7 * 86_400
        history = TimeSeries(
            gapped.granularity,
            gapped.at[: len(train) + after],
            gapped.values[: len(train) + after],
        )
        expected = gp_oracle_step(trained, int(train.at[0]), history, int(test.at[after]))
        assert predictions[after] == pytest.approx(expected, rel=1e-12)

    def test_non_extending_history_refits(self, fit_gp_calls):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 60, seed=25)
        adapter = GpAdapter()
        adapter.fit(series)
        trained = adapter.model
        fit_gp_calls.clear()
        extended = append_observation(series, int(series.at[-1]) + 86_400, 15.0)
        adapter.predict_one(extended, int(extended.at[-1]) + 86_400)
        assert fit_gp_calls == []

        dropped = TimeSeries(series.granularity, series.at[1:], series.values[1:])
        at = int(dropped.at[-1]) + 86_400
        prediction = adapter.predict_one(dropped, at)
        assert fit_gp_calls == [59]
        assert prediction == pytest.approx(
            gp_oracle_step(trained, int(series.at[0]), dropped, at), rel=1e-12
        )

    def test_revised_values_need_no_refit(self, fit_gp_calls):
        # the factor depends on the instants only; every value is re-solved
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 60, seed=26)
        adapter = GpAdapter()
        adapter.fit(series)
        trained = adapter.model
        fit_gp_calls.clear()
        revised = TimeSeries(series.granularity, series.at, series.values[::-1].copy())
        at = int(revised.at[-1]) + 86_400
        prediction = adapter.predict_one(revised, at)
        assert fit_gp_calls == []
        assert prediction == pytest.approx(
            gp_oracle_step(trained, int(series.at[0]), revised, at), rel=1e-12
        )

    def test_cap_error_at_the_step_that_crosses_it(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 2010, seed=27)
        train, test = split_holdout(series, SplitSpec(count=10))
        assert len(train) == 2000
        adapter = GpAdapter()
        adapter.load({"amplitude": 2.0, "length_scale": 7.0, "noise_variance": 0.5}, train)
        with pytest.raises(EvaluationError, match="test index 1") as info:
            rolling_one_step(adapter, train, test)
        assert isinstance(info.value.__cause__, TooLongError)

    def test_cap_recorded_per_model(self):
        series = arima.simulate_arma(12.0, [0.7], [], 1.0, 2600, seed=28)
        adapters = [ArimaAdapter(order=arima.ArimaOrder(1, 0, 0)), GpAdapter()]
        report = compare_models(series, SplitSpec(fraction=0.2), adapters, station="S")
        assert set(report.models) == {"arima"}
        assert "capped at 2000" in report.errors["gp"]


LOADABLE = {
    "arima": lambda: ArimaAdapter(p_max=1, d_max=0, q_max=1),
    "ann": lambda: AnnAdapter(config=ann.TrainConfig(seed=1, epochs=30)),
    "gp": GpAdapter,
}


@pytest.fixture(scope="module")
def ar1_split():
    series = arima.simulate_arma(12.0, [0.7], [], 1.0, 120, seed=29)
    return split_holdout(series, SplitSpec(fraction=0.2))


class TestFitOrLoad:
    @pytest.mark.parametrize("name", LOADABLE)
    def test_loaded_adapter_predicts_bitwise_as_fitted(self, name, ar1_split):
        train, test = ar1_split
        fitted, loaded = LOADABLE[name](), LOADABLE[name]()
        fitted.fit(train)
        loaded.load(json.loads(json.dumps(fitted.to_dict())), train)
        assert loaded.to_dict() == fitted.to_dict()
        (fitted_means, fitted_vars), (loaded_means, loaded_vars) = (
            adapter.forecast(train, instants_after(train, 5)) for adapter in (fitted, loaded)
        )
        assert np.array_equal(fitted_means, loaded_means)
        assert (fitted_vars is None) == (loaded_vars is None)
        if fitted_vars is not None:
            assert np.array_equal(fitted_vars, loaded_vars)
        assert np.array_equal(
            rolling_one_step(fitted, train, test)[0], rolling_one_step(loaded, train, test)[0]
        )

    def test_gp_one_step_is_the_forecast_mean(self, ar1_split):
        train, test = ar1_split
        adapter = GpAdapter()
        adapter.fit(train)
        history = append_observation(train, int(test.at[0]), float(test.values[0]))
        at = int(test.at[1])
        assert adapter.predict_one(history, at) == adapter.forecast(history, [at])[0][0]

    def test_key_covers_data_settings_and_code(self, ar1_split, monkeypatch):
        train, _ = ar1_split
        key = ArimaAdapter(p_max=1, d_max=0, q_max=1).fit_key(train)
        assert key == ArimaAdapter(p_max=1, d_max=0, q_max=1).fit_key(train)
        values = train.values.copy()
        values[3] += 1e-9
        others = [
            ArimaAdapter(p_max=1, d_max=0, q_max=1).fit_key(
                TimeSeries(train.granularity, train.at, values)
            ),
            ArimaAdapter(p_max=1, d_max=0, q_max=1).fit_key(
                TimeSeries(train.granularity, train.at + 86_400, train.values)
            ),
            ArimaAdapter(p_max=2, d_max=0, q_max=1).fit_key(train),
            ArimaAdapter(order=arima.ArimaOrder(1, 0, 1)).fit_key(train),
            AnnAdapter(config=ann.TrainConfig(seed=1)).fit_key(train),
            AnnAdapter(config=ann.TrainConfig(seed=2)).fit_key(train),
            AnnAdapter(config=ann.TrainConfig(seed=1, epochs=199)).fit_key(train),
            GpAdapter().fit_key(train),
        ]
        monkeypatch.setattr(evaluation, "_source_digest", lambda: b"other code")
        others.append(ArimaAdapter(p_max=1, d_max=0, q_max=1).fit_key(train))
        assert len({key, *others}) == 1 + len(others)

    def test_matching_file_is_loaded_and_nothing_is_written(self, ar1_split, tmp_path):
        train, _ = ar1_split
        path = tmp_path / "gp_model.json"
        first = GpAdapter()
        key = fit_or_load(first, train, path)
        assert not path.exists()
        path.write_text(json.dumps({**first.to_dict(), "fit_key": key}), encoding="utf-8")
        second = GpAdapter()
        second.fit = lambda train: pytest.fail("a stored fit with the same key was repeated")
        assert fit_or_load(second, train, path) == key
        assert second.to_dict() == first.to_dict()
        assert json.loads(path.read_text(encoding="utf-8"))["fit_key"] == key


class TestComparisonTable:
    def _report(self, station, names):
        report = EvalReport(station=station, split="trailing fraction 0.2")
        for i, name in enumerate(names):
            report.models[name] = ModelEval(
                rmse=float(i + 1), mae=float(i), predictions=np.zeros(2), actuals=np.zeros(2)
            )
        return report

    def test_full_layout(self):
        reports = [
            self._report("Gitega", ["arima", "ann", "gp"]),
            self._report("Rebero", ["arima", "ann", "gp"]),
        ]
        header, rows = comparison_table(reports, ["arima", "ann", "gp"])
        assert header == [
            "station",
            "rmse_arima", "rmse_ann", "rmse_gpr",
            "mae_arima", "mae_ann", "mae_gpr",
        ]
        assert len(rows) == 2
        assert rows[0][0] == "Gitega"
        assert rows[0][1:] == [1.0, 2.0, 3.0, 0.0, 1.0, 2.0]

    def test_single_model_two_metric_columns(self):
        header, rows = comparison_table([self._report("Gitega", ["arima"])], ["arima"])
        assert header == ["station", "rmse_arima", "mae_arima"]
        assert rows[0] == ["Gitega", 1.0, 0.0]

    def test_failed_model_leaves_blank(self):
        report = self._report("Gitega", ["arima"])
        report.errors["gp"] = "boom"
        header, rows = comparison_table([report], ["arima", "gp"])
        assert rows[0] == ["Gitega", 1.0, "", 0.0, ""]


def test_reference_comparison_shape():
    # documentation fixture: deployment-period table shape, not an oracle.
    # (Values are transcribed as published; one GPR row even has RMSE < MAE,
    # which our own computed reports can never produce.)
    assert len(REPORTED_MODEL_COMPARISON) == 9
    for station, models in REPORTED_MODEL_COMPARISON.items():
        assert set(models) == {"arima", "ann", "gp"}
        for rmse_val, mae_val in models.values():
            assert rmse_val > 0 and mae_val > 0
