"""Descriptive statistics for pollution series.

Covers the boxplot-style five-number summaries grouped by hour-of-day and
day-of-week, calendar daily means, the four Rwandan climatic seasons, and
daily-guideline exceedance.

Every grouping reads integer keys of Kigali local time (UTC+2), derived from
the epoch instants by one rule. The local instant ``at + UTC_OFFSET_SECONDS``
floor-divides into the local hour (``// 3600 % 24``) and the local day number
(``// 86400``, days since 1970-01-01), so instants before 1970 fall on their
local day too. The weekday is ``(day + 3) % 7``, Monday 0 (1970-01-01 was a
Thursday), and the month is the day's ``datetime64[M]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, EmptySeriesError, GranularityError
from .series import UTC_OFFSET_SECONDS, Granularity, TimeSeries, scaled_where_overflowing

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


_SEASONS = tuple(Season)

#: Each month's season as its position in ``Season``, indexed by month - 1.
_SEASON_BY_MONTH = np.array([2, 2, 3, 3, 3, 0, 0, 0, 1, 1, 1, 2])


@dataclass(frozen=True)
class CalendarGrid:
    """Daily means by ascending local day number (days since 1970-01-01)."""

    days: np.ndarray
    means: np.ndarray

    def sorted_items(self) -> list[tuple[date, float]]:
        return list(zip(self.days.astype("datetime64[D]").tolist(), self.means.tolist()))

    def __len__(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class ExceedanceReport:
    entries: tuple[tuple[str, float, bool], ...]  # (ISO date, daily mean, exceeds)
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


def _local_hours(at: np.ndarray) -> np.ndarray:
    return (at + UTC_OFFSET_SECONDS) // 3600 % 24


def _local_days(at: np.ndarray) -> np.ndarray:
    return (at + UTC_OFFSET_SECONDS) // 86400


def _weekdays(days: np.ndarray) -> np.ndarray:
    return (days + 3) % 7


def _seasons(days: np.ndarray) -> np.ndarray:
    """Each local day's season, as its position in ``Season``."""
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) % 12
    return _SEASON_BY_MONTH[months]


def _groups(keys: np.ndarray, values: np.ndarray, count: int) -> list[np.ndarray]:
    """``values`` split by integer key ``0..count-1``, each group in series order."""
    return [values[keys == key] for key in range(count)]


def _profile(keys: np.ndarray, values: np.ndarray, count: int) -> list[FiveNumberSummary | None]:
    return [five_number_summary(g) if g.size else None for g in _groups(keys, values, count)]


def hour_of_day_profile(series: TimeSeries) -> list[FiveNumberSummary | None]:
    """24 summaries indexed by local hour; None marks hours with no data."""
    _require(series, Granularity.HOURLY, "hour_of_day_profile")
    return _profile(_local_hours(series.at), series.values, 24)


def day_of_week_profile(series: TimeSeries) -> list[FiveNumberSummary | None]:
    """7 summaries Monday..Sunday (local dates); None marks absent days."""
    _require(series, Granularity.DAILY, "day_of_week_profile")
    return _profile(_weekdays(_local_days(series.at)), series.values, 7)


def calendar_daily_means(series: TimeSeries) -> CalendarGrid:
    """One entry per observed local date (daily series are already unique per day)."""
    _require(series, Granularity.DAILY, "calendar_daily_means")
    return CalendarGrid(_local_days(series.at), series.values)


def season_of(month: int) -> Season:
    """Climatic season for a calendar month (Rwandan four-season partition)."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return _SEASONS[_SEASON_BY_MONTH[month - 1]]


def seasonal_means(series: TimeSeries) -> dict[Season, tuple[float, int]]:
    """Mean daily value and observation count per season; absent seasons omitted."""
    _require(series, Granularity.DAILY, "seasonal_means")
    groups = _groups(_seasons(_local_days(series.at)), series.values, len(_SEASONS))
    return {
        season: (scaled_where_overflowing(lambda v: float(np.mean(v)), g), g.size)
        for season, g in zip(_SEASONS, groups) if g.size
    }


def _iso_dates(days: np.ndarray) -> list[str]:
    return np.datetime_as_string(days.astype("datetime64[D]")).tolist()


def who_exceedance(
    grid: CalendarGrid, threshold: float = WHO_DAILY_GUIDELINE
) -> ExceedanceReport:
    """Flag days whose mean strictly exceeds the guideline threshold."""
    exceeds = grid.means > threshold
    entries = tuple(zip(_iso_dates(grid.days), grid.means.tolist(), exceeds.tolist()))
    fraction = np.count_nonzero(exceeds) / len(grid) if len(grid) else None
    return ExceedanceReport(entries=entries, fraction=fraction)


# ---------------------------------------------------------------------------
# Plot-data serialization (one row per group; consumed by the CLI writers)

def profile_rows(
    key: str, labels: Sequence, profile: Sequence[FiveNumberSummary | None]
) -> tuple[list[str], list[list]]:
    """One row per labelled group; a group with no data is ``label,0`` and six blanks."""
    header = [key, "count", "min", "q1", "median", "q3", "max", "iqr"]
    rows = [
        [label, 0, "", "", "", "", "", ""] if s is None
        else [label, s.count, s.minimum, s.q1, s.median, s.q3, s.maximum, s.iqr]
        for label, s in zip(labels, profile)
    ]
    return header, rows


def calendar_rows(grid: CalendarGrid) -> tuple[list[str], list[list]]:
    header = ["date", "mean"]
    rows = [[day, mean] for day, mean in zip(_iso_dates(grid.days), grid.means.tolist())]
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
    rows = [[day, value, str(exceeds).lower()] for day, value, exceeds in report.entries]
    return header, rows
