from __future__ import annotations

import tracemalloc
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircast.errors import (
    EmptySeriesError,
    GranularityError,
    LengthError,
    NonFiniteMeanError,
    SeedError,
    SplitError,
)
from aircast.series import (
    LOCAL_TZ,
    Granularity,
    SplitSpec,
    TimeSeries,
    append_observation,
    difference,
    group_means,
    interpolate_gaps,
    inverse_difference,
    inverse_difference_values,
    iso_local,
    resample_mean,
    split_holdout,
)

from conftest import BASE_EPOCH, DAY, HOUR, daily_series, hourly_series


def assert_valid(series: TimeSeries) -> None:
    """Strict ordering + alignment must hold after every operation."""
    assert np.all(np.diff(series.at) > 0)
    step = series.granularity.step_seconds
    if step is not None:
        assert np.all((series.at + 7200) % step == 0)


class TestTimeSeriesInvariants:
    def test_rejects_duplicate_instants(self):
        with pytest.raises(ValueError):
            TimeSeries(Granularity.RAW, np.array([1, 1]), np.array([2.0, 3.0]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TimeSeries(Granularity.RAW, np.array([5, 1]), np.array([2.0, 3.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries(Granularity.RAW, np.array([1]), np.array([np.nan]))

    def test_rejects_misaligned_hourly(self):
        with pytest.raises(ValueError):
            TimeSeries(Granularity.HOURLY, np.array([BASE_EPOCH + 30]), np.array([1.0]))

    def test_daily_alignment_is_local_midnight(self):
        # BASE_EPOCH is midnight Kigali but 22:00 UTC the previous day
        series = daily_series([1.0, 2.0])
        assert_valid(series)
        assert iso_local(series.at)[0].endswith("T00:00:00+02:00")

    def test_negative_values_allowed(self):
        # differenced/simulated series legitimately go negative
        series = daily_series([-5.0, 3.0])
        assert series.values[0] == -5.0

    def test_immutable_arrays(self):
        series = daily_series([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 9.0


class TestAppendObservation:
    """`append_observation` checks the new observation alone, by the rules
    and with the messages of the `TimeSeries` constructor."""

    @staticmethod
    def constructor_error(series: TimeSeries, at: int, value: float) -> str:
        with pytest.raises(ValueError) as info:
            TimeSeries(series.granularity, np.append(series.at, at), np.append(series.values, value))
        return str(info.value)

    @pytest.mark.parametrize("granularity, offset, value", [
        pytest.param(Granularity.HOURLY, -HOUR, 1.0, id="earlier"),
        pytest.param(Granularity.HOURLY, 0, 1.0, id="equal"),
        pytest.param(Granularity.RAW, -1, 1.0, id="raw-earlier"),
        pytest.param(Granularity.HOURLY, HOUR, np.nan, id="nan"),
        pytest.param(Granularity.DAILY, DAY, -np.inf, id="minus-inf"),
        pytest.param(Granularity.HOURLY, HOUR + 60, 1.0, id="hourly-misaligned"),
        pytest.param(Granularity.DAILY, HOUR, 1.0, id="daily-misaligned"),
        pytest.param(Granularity.HOURLY, 0, np.nan, id="equal-and-nan"),
    ])
    def test_refuses_what_the_constructor_refuses(self, granularity, offset, value):
        step = granularity.step_seconds or 60
        series = TimeSeries(granularity, BASE_EPOCH + step * np.arange(5), np.arange(5.0))
        at = int(series.at[-1]) + offset
        message = self.constructor_error(series, at, value)
        with pytest.raises(ValueError) as info:
            append_observation(series, at, value)
        assert str(info.value) == message

    @pytest.mark.parametrize("values", [[], [3.0], [3.0, -1.5, 2.25]])
    def test_equals_the_constructed_series(self, values):
        series = hourly_series(values)
        at = BASE_EPOCH + HOUR * (len(values) + 2)
        extended = append_observation(series, at, 7.5)
        expected = TimeSeries(Granularity.HOURLY, np.append(series.at, at), np.append(series.values, 7.5))
        assert extended.granularity is Granularity.HOURLY
        for got, want in ((extended.at, expected.at), (extended.values, expected.values)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        assert len(series) == len(values)  # the series appended to is unchanged


class TestLocalTime:
    """The array rules agree with ``datetime`` at the fixed local offset."""

    @given(st.lists(st.integers(-62_135_596_800, 253_402_207_999), max_size=30))
    def test_iso_local_is_datetime_isoformat(self, instants):
        expected = [datetime.fromtimestamp(t, tz=LOCAL_TZ).isoformat() for t in instants]
        assert iso_local(np.array(instants, dtype=np.int64)) == expected


def loop_resample(
    series: TimeSeries, step: int, min_coverage: float
) -> tuple[list[int], list[float]]:
    """resample_mean as a loop: each local bucket summed left to right from 0.0,
    kept when its count covers ``min_coverage`` of the source cadence's share."""
    at, values = series.at.tolist(), series.values.tolist()
    source_step = int(max(1, np.median(np.diff(series.at)))) if len(at) > 1 else 1
    expected = max(1, round(step / source_step))
    buckets: dict[int, list[float]] = {}
    for t, v in zip(at, values):
        buckets.setdefault((t + 7200) // step * step - 7200, []).append(v)
    at_out, val_out = [], []
    for start, members in buckets.items():
        total = 0.0
        for v in members:
            total += v
        if len(members) / expected >= min_coverage:
            at_out.append(start)
            val_out.append(total / len(members))
    return at_out, val_out


class TestResampleMean:
    @pytest.mark.parametrize("target", [Granularity.HOURLY, Granularity.DAILY])
    @pytest.mark.parametrize("min_coverage", [0.0, 0.5, 0.75])
    def test_bucket_means_match_loop_oracle(self, rng, target, min_coverage):
        """Bit for bit: irregular raw readings, with magnitudes mixed so that
        the order of a bucket's sum shows in its last bits."""
        for _ in range(100):
            gaps = rng.choice([1, 60, 300, 900, 900, 900, 1800, 7200], int(rng.integers(1, 400)))
            at = BASE_EPOCH + int(rng.integers(0, DAY)) + np.cumsum(gaps)
            values = rng.normal(0, 1, gaps.size) * 10.0 ** rng.integers(-3, 7, gaps.size)
            series = TimeSeries(Granularity.RAW, at, values)
            at_out, val_out = loop_resample(series, target.step_seconds, min_coverage)
            if not at_out:
                with pytest.raises(EmptySeriesError):
                    resample_mean(series, target, min_coverage)
                continue
            out = resample_mean(series, target, min_coverage)
            assert out.at.tolist() == at_out
            assert out.values.tobytes() == np.array(val_out).tobytes()

    def test_two_hourly_values_to_daily_mean(self):
        series = hourly_series([10.0, 20.0])
        out = resample_mean(series, Granularity.DAILY, min_coverage=0.0)
        assert len(out) == 1
        assert out.values[0] == 15.0
        assert_valid(out)

    def test_half_coverage_day_omitted(self):
        # 12 of 24 hours present: 0.5 < 0.75
        series = hourly_series([5.0] * 12)
        with pytest.raises(EmptySeriesError):
            resample_mean(series, Granularity.DAILY, min_coverage=0.75)

    def test_constant_series_invariance(self):
        series = hourly_series([7.0] * 48)
        out = resample_mean(series, Granularity.DAILY, min_coverage=1.0)
        assert len(out) == 2
        assert np.all(out.values == 7.0)

    @pytest.mark.parametrize("target", list(Granularity), ids=lambda g: g.value)
    @pytest.mark.parametrize("source", list(Granularity), ids=lambda g: g.value)
    def test_target_must_be_coarser(self, source, target):
        # raw < hourly < daily: only a strictly coarser target with a step resamples
        series = TimeSeries(source, BASE_EPOCH + DAY * np.arange(2), [1.0, 2.0])
        if (source, target) in {
            (Granularity.RAW, Granularity.HOURLY),
            (Granularity.RAW, Granularity.DAILY),
            (Granularity.HOURLY, Granularity.DAILY),
        }:
            assert len(resample_mean(series, target, min_coverage=0.0)) == 2
        else:
            with pytest.raises(GranularityError):
                resample_mean(series, target, min_coverage=0.0)

    def test_preserves_global_mean_on_complete_buckets(self, rng):
        values = rng.uniform(0, 100, 24 * 10)
        series = hourly_series(values)
        out = resample_mean(series, Granularity.DAILY, min_coverage=1.0)
        assert len(out) == 10
        assert abs(out.values.mean() - values.mean()) < 1e-12

    def test_raw_cadence_estimated_for_coverage(self):
        # daily-cadence raw data: each daily bucket expects one observation
        at = BASE_EPOCH + DAY * np.arange(5, dtype=np.int64)
        raw = TimeSeries(Granularity.RAW, at, np.arange(5.0))
        out = resample_mean(raw, Granularity.DAILY, min_coverage=0.75)
        assert len(out) == 5
        np.testing.assert_allclose(out.values, np.arange(5.0))

    def test_overflowing_mean_raises(self):
        at = BASE_EPOCH + 900 * np.arange(4, dtype=np.int64)
        raw = TimeSeries(Granularity.RAW, at, np.array([20.0, 1e308, 1e308, 1.0]))
        with pytest.raises(NonFiniteMeanError, match="mean is not finite"):
            resample_mean(raw, Granularity.HOURLY, min_coverage=1.0)

    def test_raw_subhourly_to_hourly(self):
        # 4 readings per hour at 15-minute cadence
        at = BASE_EPOCH + 900 * np.arange(8, dtype=np.int64)
        raw = TimeSeries(Granularity.RAW, at, np.array([1.0, 2, 3, 4, 10, 10, 10, 10]))
        out = resample_mean(raw, Granularity.HOURLY, min_coverage=1.0)
        np.testing.assert_allclose(out.values, [2.5, 10.0])


class TestGroupMeans:
    def test_peak_memory_on_repeated_keys(self):
        # 50,000 sorted keys in runs of 8. The group index takes one int64 per
        # key; a cumsum of the run-start bools would buffer its cast and hold
        # about twice that
        keys = np.repeat(np.arange(6_250, dtype=np.int64), 8)
        values = np.random.default_rng(3).uniform(0, 100, keys.size)
        tracemalloc.start()
        try:
            distinct, means, counts = group_means(keys, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert distinct.tolist() == list(range(6_250)) and set(counts.tolist()) == {8}
        np.testing.assert_allclose(means, values.reshape(-1, 8).mean(axis=1), rtol=1e-15)
        per_key = peak / keys.size
        assert per_key <= 16, f"group_means peaked at {per_key:.1f} bytes per key"


class TestDifference:
    def test_first_difference(self):
        out = difference(daily_series([1.0, 3.0, 6.0]), 1)
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        # instants attach to the later operand
        np.testing.assert_array_equal(out.at, daily_series([1.0, 3.0, 6.0]).at[1:])

    def test_d0_is_identity(self):
        series = daily_series([4.0, 2.0, 9.0])
        out = difference(series, 0)
        np.testing.assert_array_equal(out.values, series.values)
        np.testing.assert_array_equal(out.at, series.at)

    def test_second_difference_by_hand(self):
        # [1,3,6,10] -> [2,3,4] -> [1,1]
        out = difference(daily_series([1.0, 3.0, 6.0, 10.0]), 2)
        np.testing.assert_array_equal(out.values, [1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(LengthError):
            difference(daily_series([1.0, 2.0]), 2)


class TestInverseDifference:
    def test_cumulative_sum(self):
        diffed = daily_series([2.0, 3.0], start=BASE_EPOCH + DAY)
        out = inverse_difference(diffed, [1.0], 1)
        np.testing.assert_array_equal(out.values, [3.0, 6.0])

    def test_d0_identity(self):
        series = daily_series([5.0, 1.0])
        out = inverse_difference(series, [], 0)
        np.testing.assert_array_equal(out.values, series.values)

    def test_seed_count_enforced(self):
        with pytest.raises(SeedError):
            inverse_difference(daily_series([1.0]), [1.0, 2.0], 1)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_matches_step_by_step_recursion(self, rng, d):
        """Bit for bit: each new value is integrated one step at a time, from
        the (d-1)-th difference down to the series itself."""
        for _ in range(200):
            seeds = rng.uniform(-50, 50, d)
            diffed = rng.uniform(-50, 50, rng.integers(0, 30))
            # latest value of the original series and of its first difference
            state = [*seeds[-1:], *np.diff(seeds)[-1:]]
            expected = []
            for z in diffed:
                acc = z
                for k in range(d - 1, -1, -1):
                    acc = state[k] = state[k] + acc
                expected.append(acc)
            restored = inverse_difference_values(diffed, seeds, d)
            np.testing.assert_array_equal(restored, np.array(expected, dtype=np.float64))

    @given(
        st.lists(st.floats(-100, 100), min_size=50, max_size=50),
        st.integers(min_value=0, max_value=2),
    )
    def test_round_trip_identity(self, values, d):
        series = daily_series(values)
        diffed = difference(series, d)
        restored = inverse_difference(diffed, series.values[:d], d)
        scale = np.maximum(np.abs(series.values[d:]), 1.0)
        assert np.all(np.abs(restored.values - series.values[d:]) / scale < 1e-9)
        np.testing.assert_array_equal(restored.at, series.at[d:])


def loop_interpolate(series: TimeSeries, max_gap: int) -> tuple[list[int], list[float]]:
    """interpolate_gaps as a loop over the gaps, one filled point at a time."""
    step = series.granularity.step_seconds
    at, values = series.at.tolist(), series.values.tolist()
    at_out, val_out = at[:1], values[:1]
    for i in range(len(at) - 1):
        span = at[i + 1] - at[i]
        missing = span // step - 1
        for k in range(1, missing + 1 if 1 <= missing <= max_gap else 1):
            at_out.append(at[i] + k * step)
            val_out.append(values[i] + (k * step / span) * (values[i + 1] - values[i]))
        at_out.append(at[i + 1])
        val_out.append(values[i + 1])
    return at_out, val_out


class TestInterpolateGaps:
    def test_midpoint_fill(self):
        series = TimeSeries(
            Granularity.DAILY,
            np.array([BASE_EPOCH, BASE_EPOCH + 2 * DAY]),
            np.array([10.0, 20.0]),
        )
        out = interpolate_gaps(series, max_gap=1)
        np.testing.assert_array_equal(out.values, [10.0, 15.0, 20.0])
        assert_valid(out)

    def test_long_gap_untouched(self):
        series = TimeSeries(
            Granularity.DAILY,
            np.array([BASE_EPOCH, BASE_EPOCH + 4 * DAY]),
            np.array([10.0, 20.0]),
        )
        out = interpolate_gaps(series, max_gap=1)
        np.testing.assert_array_equal(out.values, series.values)

    def test_linear_formula(self):
        series = TimeSeries(
            Granularity.DAILY,
            np.array([BASE_EPOCH, BASE_EPOCH + 3 * DAY]),
            np.array([0.0, 9.0]),
        )
        out = interpolate_gaps(series, max_gap=3)
        np.testing.assert_allclose(out.values, [0.0, 3.0, 6.0, 9.0])

    def test_existing_observations_untouched(self, rng):
        values = rng.uniform(0, 50, 30)
        keep = np.sort(rng.choice(30, size=18, replace=False))
        series = TimeSeries(
            Granularity.DAILY, BASE_EPOCH + DAY * keep.astype(np.int64), values[keep]
        )
        out = interpolate_gaps(series, max_gap=2)
        restored = dict(zip(out.at.tolist(), out.values.tolist()))
        for t, v in zip(series.at.tolist(), series.values.tolist()):
            assert restored[t] == v
        # no extrapolation past either end
        assert out.at[0] == series.at[0] and out.at[-1] == series.at[-1]

    @pytest.mark.parametrize("granularity", [Granularity.HOURLY, Granularity.DAILY])
    @pytest.mark.parametrize("max_gap", [0, 1, 3, 6])
    def test_random_gaps_match_loop_oracle(self, rng, granularity, max_gap):
        step = granularity.step_seconds
        for scale in (1.0, 1e3, 1e-300, 1e300) * 25:
            steps = rng.integers(1, 21, int(rng.integers(1, 40)))
            at = BASE_EPOCH + step * np.cumsum(steps)
            series = TimeSeries(granularity, at, scale * rng.normal(0, 1, steps.size))
            out = interpolate_gaps(series, max_gap)
            at, values = loop_interpolate(series, max_gap)
            assert out.at.tolist() == at
            assert out.values.tobytes() == np.array(values).tobytes()

    def test_overflowing_difference_is_non_finite(self):
        at = np.array([BASE_EPOCH, BASE_EPOCH + 3 * HOUR])
        series = TimeSeries(Granularity.HOURLY, at, np.array([-1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="values must be finite"):
                interpolate_gaps(series, max_gap=6)

    def test_requires_aligned_granularity(self):
        raw = TimeSeries(Granularity.RAW, np.array([0, 100]), np.array([1.0, 2.0]))
        with pytest.raises(GranularityError):
            interpolate_gaps(raw, max_gap=2)


class TestSplitHoldout:
    def test_fraction(self):
        train, test = split_holdout(daily_series(np.arange(100.0)), SplitSpec(fraction=0.2))
        assert len(train) == 80 and len(test) == 20
        np.testing.assert_array_equal(
            np.concatenate([train.values, test.values]), np.arange(100.0)
        )

    def test_count(self):
        train, test = split_holdout(daily_series(np.arange(10.0)), SplitSpec(count=1))
        assert len(train) == 9 and len(test) == 1

    def test_train_floor(self):
        with pytest.raises(SplitError):
            split_holdout(daily_series(np.arange(10.0)), SplitSpec(fraction=0.95))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(fraction=0.2, count=3)
        with pytest.raises(ValueError):
            SplitSpec()
        with pytest.raises(ValueError):
            SplitSpec(fraction=1.5)
