from __future__ import annotations

import math
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aircast.errors import EmptyInputError, EmptySeriesError, GranularityError
from aircast.series import LOCAL_TZ, Granularity, TimeSeries
from aircast.trends import (
    CalendarGrid,
    _local_days,
    _local_hours,
    _seasons,
    _weekdays,
    Season,
    calendar_daily_means,
    day_of_week_profile,
    five_number_summary,
    hour_of_day_profile,
    season_of,
    seasonal_means,
    who_exceedance,
)

from conftest import BASE_EPOCH, DAY, HOUR, daily_series, hourly_series


def quantile_oracle(values, p):
    """Independent linear interpolation at rank h = (n-1)p."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def utc(*fields: int) -> int:
    """Epoch seconds of a UTC wall time (year, month, day[, hour, minute, second])."""
    return int(datetime(*fields, tzinfo=timezone.utc).timestamp())


#: UTC days of leap days and year ends, before and after 1970
EDGE_DAYS = [(date(*ymd) - date(1970, 1, 1)).days for ymd in (
    (1, 1, 1), (1600, 2, 29), (1900, 2, 28), (1900, 3, 1), (1969, 12, 31), (1970, 1, 1),
    (1972, 2, 28), (1972, 2, 29), (2000, 2, 29), (2020, 12, 31), (2024, 2, 29),
    (9999, 12, 30),
)]

#: The last second of a local day and the first of the next (Kigali is UTC+2)
MIDNIGHT_SECONDS = [21 * 3600 + 3599, 22 * 3600]

instants = st.builds(
    lambda day, second: day * 86400 + second,
    st.one_of(st.integers(-719_162, 2_932_895), st.sampled_from(EDGE_DAYS)),
    st.one_of(st.integers(0, 86_399), st.sampled_from(MIDNIGHT_SECONDS)),
)

SEASON_OF_MONTH = {
    12: Season.SHORT_DRY, 1: Season.SHORT_DRY, 2: Season.SHORT_DRY,
    3: Season.LONG_RAINY, 4: Season.LONG_RAINY, 5: Season.LONG_RAINY,
    6: Season.LONG_DRY, 7: Season.LONG_DRY, 8: Season.LONG_DRY,
    9: Season.SHORT_RAINY, 10: Season.SHORT_RAINY, 11: Season.SHORT_RAINY,
}


class TestLocalKeys:
    """The grouping keys agree with ``datetime`` at the fixed local offset."""

    @given(st.lists(instants, max_size=30))
    @example([
        utc(1972, 2, 28, 21, 59, 59), utc(1972, 2, 28, 22),  # into a leap day
        utc(1969, 12, 31, 21, 59, 59), utc(1969, 12, 31, 22),  # into 1970, local
        -1, 0, utc(1900, 2, 28, 22), utc(2020, 12, 31, 21, 59, 59), utc(2020, 12, 31, 22),
    ])
    def test_keys_are_datetime_fields(self, instants):
        at = np.array(instants, dtype=np.int64)
        local = [datetime.fromtimestamp(t, tz=LOCAL_TZ) for t in instants]
        days = _local_days(at)
        assert _local_hours(at).tolist() == [d.hour for d in local]
        assert days.astype("datetime64[D]").tolist() == [d.date() for d in local]
        assert _weekdays(days).tolist() == [d.weekday() for d in local]
        assert [list(Season)[i] for i in _seasons(days)] == [
            SEASON_OF_MONTH[d.month] for d in local
        ]


class TestFiveNumberSummary:
    def test_one_to_five(self):
        s = five_number_summary([1, 2, 3, 4, 5])
        assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (1, 2, 3, 4, 5)
        assert s.iqr == 2
        assert s.count == 5

    def test_singleton(self):
        s = five_number_summary([7.0])
        assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 7.0
        assert s.iqr == 0.0

    def test_sorting_invariance(self):
        assert five_number_summary([3, 1, 2]).median == 2

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            five_number_summary([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_matches_interpolation_oracle(self, values):
        s = five_number_summary(values)
        for got, p in ((s.q1, 0.25), (s.median, 0.5), (s.q3, 0.75)):
            want = quantile_oracle(values, p)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.randoms())
    def test_permutation_invariance(self, values, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        assert five_number_summary(shuffled) == five_number_summary(values)

    def test_monotone_in_new_max(self):
        base = [5.0, 9.0, 2.0, 7.0]
        before = five_number_summary(base)
        after = five_number_summary(base + [20.0])
        assert after.maximum == 20.0
        assert after.minimum == before.minimum
        assert after.q1 >= before.q1

    def test_whiskers_are_the_true_extremes(self):
        # 100 lies beyond the 1.5-IQR fence (q3 = 4, iqr = 2) and is still the maximum
        assert five_number_summary([1.0, 2.0, 3.0, 4.0, 100.0]).maximum == 100.0


class TestHourOfDayProfile:
    def test_single_hour_population(self):
        # three days, always the 08:00 local slot
        at = np.array([BASE_EPOCH + 8 * HOUR + d * DAY for d in range(3)], dtype=np.int64)
        series = TimeSeries(Granularity.HOURLY, at, np.array([10.0, 20.0, 30.0]))
        profile = hour_of_day_profile(series)
        assert profile[8] is not None and profile[8].median == 20.0
        assert all(profile[h] is None for h in range(24) if h != 8)

    def test_constant_series(self):
        series = hourly_series([5.0] * 72)
        profile = hour_of_day_profile(series)
        for summary in profile:
            assert summary is not None
            assert summary.minimum == summary.maximum == 5.0

    def test_diurnal_peak_recovered(self):
        # value depends only on local hour, peaking at hour 7
        hours = np.arange(24 * 14)
        local_hour = hours % 24
        values = 50 + 10 * np.cos((local_hour - 7) * 2 * np.pi / 24)
        series = hourly_series(values)
        profile = hour_of_day_profile(series)
        medians = [s.median for s in profile]
        assert int(np.argmax(medians)) == 7

    def test_requires_hourly(self):
        with pytest.raises(GranularityError):
            hour_of_day_profile(daily_series([1.0, 2.0]))

    def test_no_observation_lost(self, rng):
        values = rng.uniform(0, 80, 200)
        series = hourly_series(values)
        profile = hour_of_day_profile(series)
        assert sum(s.count for s in profile if s is not None) == len(series)


class TestDayOfWeekProfile:
    def test_only_thursdays(self):
        # 2021-01-07 is a Thursday
        thursday = BASE_EPOCH + 6 * DAY
        at = np.array([thursday, thursday + 7 * DAY], dtype=np.int64)
        series = TimeSeries(Granularity.DAILY, at, np.array([40.0, 60.0]))
        profile = day_of_week_profile(series)
        assert profile[3] is not None and profile[3].median == 50.0
        assert sum(s is not None for s in profile) == 1

    def test_constant_week(self):
        series = daily_series([5.0] * 14)
        profile = day_of_week_profile(series)
        assert all(s is not None and s.median == 5.0 for s in profile)

    def test_weekday_weekend_contrast(self):
        values = []
        for i in range(28):
            weekday = datetime.fromtimestamp(BASE_EPOCH + i * DAY, tz=LOCAL_TZ).weekday()
            values.append(50.0 if weekday < 5 else 20.0)
        profile = day_of_week_profile(daily_series(values))
        weekday_medians = [profile[i].median for i in range(5)]
        weekend_medians = [profile[i].median for i in range(5, 7)]
        assert max(weekday_medians) > max(weekend_medians)


class TestCalendar:
    def test_entries_match_observations(self):
        series = daily_series([1.0, 2.0, 3.0])
        grid = calendar_daily_means(series)
        assert len(grid) == 3
        assert [v for _, v in grid.sorted_items()] == [1.0, 2.0, 3.0]

    def test_full_month_constant(self):
        # July 2021 at the reported national daily mean
        july_first = BASE_EPOCH + 181 * DAY
        series = daily_series([42.6] * 31, start=july_first)
        grid = calendar_daily_means(series)
        assert len(grid) == 31
        assert all(day.month == 7 for day, _ in grid.sorted_items())
        assert all(v == 42.6 for _, v in grid.sorted_items())


class TestSeasons:
    def test_quoted_partition(self):
        assert season_of(6) is Season.LONG_DRY
        assert season_of(12) is Season.SHORT_DRY
        assert season_of(3) is Season.LONG_RAINY
        assert season_of(9) is Season.SHORT_RAINY

    def test_partition_sizes(self):
        by_season = {}
        for month in range(1, 13):
            by_season.setdefault(season_of(month), []).append(month)
        assert sorted(len(v) for v in by_season.values()) == [3, 3, 3, 3]
        assert by_season[Season.LONG_DRY] == [6, 7, 8]
        assert by_season[Season.SHORT_RAINY] == [9, 10, 11]
        assert by_season[Season.SHORT_DRY] == [1, 2, 12]
        assert by_season[Season.LONG_RAINY] == [3, 4, 5]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            season_of(0)
        with pytest.raises(ValueError):
            season_of(13)

    def test_long_dry_fixture_mean(self):
        july_first = BASE_EPOCH + 181 * DAY
        series = daily_series([45.844] * 20, start=july_first)
        means = seasonal_means(series)
        mean, count = means[Season.LONG_DRY]
        assert mean == pytest.approx(45.844, rel=1e-12)
        assert count == 20
        assert Season.SHORT_DRY not in means

    def test_one_day_per_season(self):
        # mid-January, mid-April, mid-July, mid-October
        offsets = [14, 104, 195, 287]
        at = np.array([BASE_EPOCH + o * DAY for o in offsets], dtype=np.int64)
        series = TimeSeries(Granularity.DAILY, at, np.array([1.0, 2.0, 3.0, 4.0]))
        means = seasonal_means(series)
        assert means[Season.SHORT_DRY] == (1.0, 1)
        assert means[Season.LONG_RAINY] == (2.0, 1)
        assert means[Season.LONG_DRY] == (3.0, 1)
        assert means[Season.SHORT_RAINY] == (4.0, 1)

    def test_matches_regrouping_oracle(self, rng):
        values = rng.uniform(5, 90, 365)
        series = daily_series(values)
        means = seasonal_means(series)
        groups: dict[Season, list[float]] = {}
        for i, v in enumerate(values):
            day = datetime.fromtimestamp(BASE_EPOCH + i * DAY, tz=LOCAL_TZ)
            groups.setdefault(season_of(day.month), []).append(float(v))
        for season, vals in groups.items():
            mean, count = means[season]
            assert count == len(vals)
            assert abs(mean - sum(vals) / len(vals)) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptySeriesError):
            seasonal_means(TimeSeries(Granularity.DAILY, np.array([], dtype=np.int64), np.array([])))

    def test_finite_days_whose_sum_overflows_have_a_finite_mean(self):
        (mean, count), = seasonal_means(daily_series([1.7e308, 1.7e308, 1.0, 2.0])).values()
        assert count == 4
        assert mean == pytest.approx(8.5e307, rel=1e-12)


class TestWhoExceedance:
    def test_strict_inequality_boundary(self):
        series = daily_series([14.9, 15.0, 15.1])
        report = who_exceedance(calendar_daily_means(series))
        assert [exceeds for _, _, exceeds in report.entries] == [False, False, True]
        assert report.fraction == pytest.approx(1 / 3)

    def test_empty_grid(self):
        report = who_exceedance(CalendarGrid(np.array([], dtype=np.int64), np.array([])))
        assert report.entries == ()
        assert report.fraction is None

    def test_reported_mean_always_exceeds(self):
        series = daily_series([42.6] * 10)
        report = who_exceedance(calendar_daily_means(series))
        assert all(exceeds for _, _, exceeds in report.entries)
        assert report.fraction == 1.0

    def test_threshold_override(self):
        series = daily_series([20.0, 30.0])
        report = who_exceedance(calendar_daily_means(series), threshold=25.0)
        assert [exceeds for _, _, exceeds in report.entries] == [False, True]


def test_profiles_match_regrouping_oracle(rng):
    """Randomized year: grouped stats equal a direct regroup at 1e-12."""
    values = rng.uniform(1, 120, 24 * 365)
    series = hourly_series(values)
    profile = hour_of_day_profile(series)
    groups: dict[int, list[float]] = {}
    for t, v in zip(series.at.tolist(), values):
        hour = datetime.fromtimestamp(t, tz=LOCAL_TZ).hour
        groups.setdefault(hour, []).append(float(v))
    for hour in range(24):
        summary = profile[hour]
        vals = groups[hour]
        assert summary is not None and summary.count == len(vals)
        assert abs(summary.median - quantile_oracle(vals, 0.5)) < 1e-12
        assert abs(summary.q1 - quantile_oracle(vals, 0.25)) < 1e-12
        assert abs(summary.q3 - quantile_oracle(vals, 0.75)) < 1e-12
        assert summary.minimum == min(vals)
        assert summary.maximum == max(vals)
