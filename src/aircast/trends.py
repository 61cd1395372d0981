"""Descriptive statistics for pollution series.

Covers the boxplot-style five-number summaries grouped by hour-of-day and
day-of-week, calendar daily means, the four Rwandan climatic seasons, and
daily-guideline exceedance. Grouping keys use Kigali local time (UTC+2).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, EmptySeriesError, GranularityError
from .series import UTC_OFFSET_SECONDS, Granularity, TimeSeries

#: WHO-recommended 24-hour mean PM2.5 guideline, µg/m³.
WHO_DAILY_GUIDELINE = 15.0

WEEKDAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)


@dataclass(frozen=True)
class FiveNumberSummary:
    """min / q1 / median / q3 / max of a value group, plus IQR and count.

    Whiskers are the true extremes; quartiles use linear interpolation at
    rank h = (n-1)p.
    """

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    iqr: float
    count: int


class Season(Enum):
    LONG_DRY = "long_dry"  # June-August
    SHORT_RAINY = "short_rainy"  # September-November
    SHORT_DRY = "short_dry"  # December-February
    LONG_RAINY = "long_rainy"  # March-May


_SEASON_BY_MONTH: dict[int, Season] = {
    1: Season.SHORT_DRY,
    2: Season.SHORT_DRY,
    3: Season.LONG_RAINY,
    4: Season.LONG_RAINY,
    5: Season.LONG_RAINY,
    6: Season.LONG_DRY,
    7: Season.LONG_DRY,
    8: Season.LONG_DRY,
    9: Season.SHORT_RAINY,
    10: Season.SHORT_RAINY,
    11: Season.SHORT_RAINY,
    12: Season.SHORT_DRY,
}


@dataclass(frozen=True)
class CalendarGrid:
    """Daily means keyed by local calendar date."""

    entries: Mapping[date, float]

    def sorted_items(self) -> list[tuple[date, float]]:
        return sorted(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ExceedanceEntry:
    day: date
    value: float
    exceeds: bool


@dataclass(frozen=True)
class ExceedanceReport:
    threshold: float
    entries: tuple[ExceedanceEntry, ...]
    fraction: float | None  # None when there are no entries


def five_number_summary(values: Sequence[float]) -> FiveNumberSummary:
    """Summarize a group of values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("cannot summarize an empty group")
    q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return FiveNumberSummary(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
        iqr=float(q3 - q1),
        count=int(arr.size),
    )


def _require(series: TimeSeries, granularity: Granularity, op: str) -> None:
    if series.granularity is not granularity:
        raise GranularityError(
            f"{op} requires a {granularity.value} series, got {series.granularity.value}"
        )
    if len(series) == 0:
        raise EmptySeriesError(f"{op} requires a non-empty series")


def hour_of_day_profile(series: TimeSeries) -> list[FiveNumberSummary | None]:
    """24 summaries indexed by local hour; None marks hours with no data."""
    _require(series, Granularity.HOURLY, "hour_of_day_profile")
    hours = (series.at + UTC_OFFSET_SECONDS) // 3600 % 24
    groups = [series.values[hours == hour] for hour in range(24)]
    return [five_number_summary(g) if g.size else None for g in groups]


def day_of_week_profile(series: TimeSeries) -> list[FiveNumberSummary | None]:
    """7 summaries Monday..Sunday (local dates); None marks absent days."""
    _require(series, Granularity.DAILY, "day_of_week_profile")
    groups: list[list[float]] = [[] for _ in range(7)]
    for day, value in zip(series.local_dates(), series.values.tolist()):
        groups[day.weekday()].append(value)
    return [five_number_summary(g) if g else None for g in groups]


def calendar_daily_means(series: TimeSeries) -> CalendarGrid:
    """One entry per observed local date (daily series are already unique per day)."""
    _require(series, Granularity.DAILY, "calendar_daily_means")
    return CalendarGrid(dict(zip(series.local_dates(), series.values.tolist())))


def season_of(month: int) -> Season:
    """Climatic season for a calendar month (Rwandan four-season partition)."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return _SEASON_BY_MONTH[month]


def seasonal_means(series: TimeSeries) -> dict[Season, tuple[float, int]]:
    """Mean daily value and observation count per season; absent seasons omitted."""
    _require(series, Granularity.DAILY, "seasonal_means")
    groups: dict[Season, list[float]] = {}
    for day, value in zip(series.local_dates(), series.values.tolist()):
        groups.setdefault(season_of(day.month), []).append(value)
    return {
        season: (float(np.mean(vals)), len(vals)) for season, vals in groups.items()
    }


def who_exceedance(
    grid: CalendarGrid, threshold: float = WHO_DAILY_GUIDELINE
) -> ExceedanceReport:
    """Flag days whose mean strictly exceeds the guideline threshold."""
    entries = tuple(
        ExceedanceEntry(day, value, value > threshold) for day, value in grid.sorted_items()
    )
    fraction = (
        sum(1 for e in entries if e.exceeds) / len(entries) if entries else None
    )
    return ExceedanceReport(threshold=threshold, entries=entries, fraction=fraction)


# ---------------------------------------------------------------------------
# Plot-data serialization (one row per group; consumed by the CLI writers)

_SUMMARY_FIELDS = ("count", "min", "q1", "median", "q3", "max", "iqr")


def _summary_cells(summary: FiveNumberSummary | None) -> list:
    if summary is None:
        return [0, "", "", "", "", "", ""]
    return [
        summary.count,
        summary.minimum,
        summary.q1,
        summary.median,
        summary.q3,
        summary.maximum,
        summary.iqr,
    ]


def hour_profile_rows(profile: Sequence[FiveNumberSummary | None]) -> tuple[list[str], list[list]]:
    header = ["hour"] + list(_SUMMARY_FIELDS)
    rows = [[hour] + _summary_cells(s) for hour, s in enumerate(profile)]
    return header, rows


def weekday_profile_rows(profile: Sequence[FiveNumberSummary | None]) -> tuple[list[str], list[list]]:
    header = ["weekday"] + list(_SUMMARY_FIELDS)
    rows = [[WEEKDAY_NAMES[i]] + _summary_cells(s) for i, s in enumerate(profile)]
    return header, rows


def calendar_rows(grid: CalendarGrid) -> tuple[list[str], list[list]]:
    header = ["date", "mean"]
    rows = [[day.isoformat(), value] for day, value in grid.sorted_items()]
    return header, rows


def seasonal_rows(means: Mapping[Season, tuple[float, int]]) -> tuple[list[str], list[list]]:
    header = ["season", "mean", "count"]
    rows = [
        [season.value, means[season][0], means[season][1]]
        for season in Season
        if season in means
    ]
    return header, rows


def exceedance_rows(report: ExceedanceReport) -> tuple[list[str], list[list]]:
    header = ["date", "value", "exceeds"]
    rows = [
        [e.day.isoformat(), e.value, str(e.exceeds).lower()] for e in report.entries
    ]
    return header, rows
