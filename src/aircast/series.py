"""Canonical time-series representation and transformations.

A :class:`TimeSeries` is an immutable, strictly time-ordered sequence of
(instant, value) observations at a declared granularity. Instants are integer
epoch seconds (UTC); all hour/day bucket boundaries are taken in Kigali local
time (fixed UTC+2, no DST), so diurnal and weekday statistics line up with
local activity patterns.

All operations are pure: they validate, never mutate, and return new series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptySeriesError,
    GranularityError,
    LengthError,
    NonFiniteMeanError,
    SeedError,
    SplitError,
)

#: Fixed local-time offset for bucket boundaries (Kigali, UTC+2, no DST).
UTC_OFFSET_SECONDS = 7200

LOCAL_TZ = timezone(timedelta(seconds=UTC_OFFSET_SECONDS))

#: The offset part of a local ISO-8601 stamp, ``+02:00``.
_LOCAL_SUFFIX = datetime.fromtimestamp(0, LOCAL_TZ).isoformat()[19:]

_MIN_TRAIN = 10

#: The share of a bucket's expected observations :func:`resample_mean` keeps it for.
DEFAULT_MIN_COVERAGE = 0.75


class Granularity(Enum):
    RAW = "raw"
    HOURLY = "hourly"
    DAILY = "daily"

    @property
    def step_seconds(self) -> int | None:
        """Nominal spacing between observations; None for raw sensor cadence."""
        return {"raw": None, "hourly": 3600, "daily": 86400}[self.value]


@dataclass(frozen=True)
class TimeSeries:
    """Immutable series of observations, strictly increasing in time.

    Hourly/Daily series additionally require every instant to sit on the
    corresponding local-time boundary. Values must be finite but may be
    negative: differenced or simulated series are legitimate TimeSeries even
    though raw concentrations are non-negative (ingestion enforces that).
    """

    granularity: Granularity
    at: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        at = np.asarray(self.at, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if at.ndim != 1 or values.ndim != 1:
            raise ValueError("at and values must be 1-D")
        if at.size != values.size:
            raise ValueError(f"length mismatch: {at.size} instants, {values.size} values")
        _check_observations(self.granularity, at, values)
        _freeze(self, at, values)

    def __len__(self) -> int:
        return int(self.at.size)


def _check_observations(granularity: Granularity, at: np.ndarray, values: np.ndarray) -> None:
    """Raise ValueError unless the instants ``at`` strictly increase and sit on
    the granularity's local step, and their ``values`` are finite."""
    # array methods, not numpy's functions: a one-point append calls this on two points
    if (at[1:] <= at[:-1]).any():
        raise ValueError("instants must be strictly increasing (no duplicates)")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    step = granularity.step_seconds
    if step is not None and ((at + UTC_OFFSET_SECONDS) % step).any():
        raise ValueError(
            f"{granularity.value} series must be aligned to local {step}-second boundaries"
        )


def _freeze(series: TimeSeries, at: np.ndarray, values: np.ndarray) -> None:
    """Store checked, read-only ``at`` and ``values`` on ``series``."""
    at.setflags(write=False)
    values.setflags(write=False)
    object.__setattr__(series, "at", at)
    object.__setattr__(series, "values", values)


def iso_local(at: Sequence[int] | np.ndarray) -> list[str]:
    """Local-time ISO-8601 stamps of epoch instants, ``2021-06-01T08:00:00+02:00``."""
    wall = (np.asarray(at, dtype=np.int64) + UTC_OFFSET_SECONDS).astype("datetime64[s]")
    return [stamp + _LOCAL_SUFFIX for stamp in np.datetime_as_string(wall).tolist()]


@dataclass(frozen=True)
class SplitSpec:
    """Trailing-holdout split: either a fraction of length or a fixed count.

    Exactly one of ``fraction`` / ``count`` is set; the resulting train
    segment must keep at least 10 observations.
    """

    fraction: float | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if (self.fraction is None) == (self.count is None):
            raise ValueError("set exactly one of fraction or count")
        if self.fraction is not None and not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must lie in (0, 1)")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1")

    def test_size(self, n: int) -> int:
        if self.count is not None:
            return self.count
        return max(1, int(round(n * float(self.fraction))))

    def describe(self) -> str:
        if self.count is not None:
            return f"trailing {self.count} observations"
        return f"trailing fraction {self.fraction}"


def _bucket_starts(at: np.ndarray, step: int) -> np.ndarray:
    """Start instant (UTC epoch) of the local-time bucket containing each instant."""
    local = at + UTC_OFFSET_SECONDS
    return (local // step) * step - UTC_OFFSET_SECONDS


def estimate_step_seconds(series: TimeSeries) -> int:
    """Observation cadence: the declared step, or the median gap for raw series."""
    declared = series.granularity.step_seconds
    if declared is not None:
        return declared
    if len(series) < 2:
        return 1
    gaps = np.diff(series.at)
    return int(max(1, np.median(gaps)))


def instants_after(series: TimeSeries, count: int) -> np.ndarray:
    """The ``count`` instants that follow ``series`` at its cadence."""
    step = estimate_step_seconds(series)
    return series.at[-1] + step * np.arange(1, count + 1, dtype=np.int64)


def group_means(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct keys, mean of ``values`` per key, count per key) of non-decreasing ``keys``:
    each run of equal keys is one group. Each key's values are summed in their given
    order, as ``np.mean`` sums up to seven values; a sum that overflows raises
    NonFiniteMeanError."""
    run_starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run_starts[1:])
    distinct = keys[run_starts]
    group = run_starts.astype(np.intp)
    np.cumsum(group, out=group)  # in place: a cumsum of the bools would buffer its cast
    group -= 1  # each key's group: its position in ``distinct``
    counts = np.bincount(group, minlength=distinct.size)
    sums = np.bincount(group, weights=values, minlength=distinct.size)
    if not np.all(np.isfinite(sums)):
        raise NonFiniteMeanError("mean is not finite (a sum of readings overflows)")
    sums /= counts
    return distinct, sums, counts


def scaled_where_overflowing(statistic: Callable[[np.ndarray], float], values: np.ndarray) -> float:
    """``statistic(values)``; where that overflows, the values are first scaled by
    their largest magnitude, so finite values give a finite mean, median, RMS or
    mean magnitude. A statistic that does not overflow is returned as computed."""
    with np.errstate(over="ignore"):
        value = statistic(values)
    if np.isinf(value) and np.all(np.isfinite(values)):
        scale = float(np.max(np.abs(values)))
        value = scale * statistic(values / scale)
    return value


def resample_mean(
    series: TimeSeries, target: Granularity, min_coverage: float = DEFAULT_MIN_COVERAGE
) -> TimeSeries:
    """Aggregate to a coarser granularity by per-bucket arithmetic mean.

    Buckets holding fewer than ``min_coverage`` of their expected observation
    count are omitted. Expected counts come from the source's declared step,
    or from the median observed cadence for raw input.
    """
    step = target.step_seconds
    if step is None or step <= (series.granularity.step_seconds or 0):
        raise GranularityError(
            f"target {target.value} is not coarser than {series.granularity.value}"
        )
    if not 0.0 <= min_coverage <= 1.0:
        raise ValueError("min_coverage must lie in [0, 1]")
    if len(series) == 0:
        raise EmptySeriesError("cannot resample an empty series")

    source_step = estimate_step_seconds(series)
    expected = max(1, int(round(step / source_step)))

    # the series is time-ordered, so its bucket starts are already non-decreasing
    buckets, means, counts = group_means(_bucket_starts(series.at, step), series.values)
    keep = counts / expected >= min_coverage
    if not np.any(keep):
        raise EmptySeriesError("no bucket met the coverage requirement")
    return TimeSeries(target, buckets[keep], means[keep])


def difference(series: TimeSeries, d: int) -> TimeSeries:
    """Apply first-differencing ``d`` times.

    Output instants attach to the later operand of each subtraction, so a
    one-step forecast of the differenced series aligns with the next
    unobserved instant.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    return TimeSeries(series.granularity, series.at[d:], difference_values(series.values, d))


def difference_values(values: np.ndarray, d: int) -> np.ndarray:
    """Array form of :func:`difference` for model internals."""
    if len(values) <= d:
        raise LengthError(f"need length > {d}, got {len(values)}")
    out = np.asarray(values, dtype=np.float64)
    for _ in range(d):
        out = np.diff(out)
    return out


def inverse_difference_values(
    diffed: np.ndarray, seeds: Sequence[float], d: int
) -> np.ndarray:
    """Integrate order-``d`` differences back to the original scale.

    ``seeds`` are the d original-scale values immediately preceding the
    reconstructed segment, oldest first. Exact left inverse of
    :func:`difference_values` on the tail.
    """
    if len(seeds) != d:
        raise SeedError(f"expected {d} seeds, got {len(seeds)}")
    seeds = np.asarray(seeds, dtype=np.float64)
    out = np.array(diffed, dtype=np.float64)
    # integrate one level at a time, from the (d-1)-th difference down: a
    # sequential running sum from the last value of the seeds at that level
    for k in range(d - 1, -1, -1):
        out = np.cumsum(np.concatenate([np.diff(seeds, n=k)[-1:], out]))[1:]
    return out


def inverse_difference(diffed: TimeSeries, seeds: Sequence[float], d: int) -> TimeSeries:
    """TimeSeries form of :func:`inverse_difference_values` (keeps instants)."""
    values = inverse_difference_values(diffed.values, seeds, d)
    return TimeSeries(diffed.granularity, diffed.at, values)


def interpolate_gaps(series: TimeSeries, max_gap: int) -> TimeSeries:
    """Fill internal gaps of at most ``max_gap`` missing steps linearly.

    Longer gaps are left untouched; leading/trailing gaps are never filled and
    existing observations are never altered.
    """
    step = series.granularity.step_seconds
    if step is None:
        raise GranularityError("gap interpolation requires hourly or daily granularity")
    if max_gap < 0:
        raise ValueError("max_gap must be non-negative")
    if len(series) < 2 or max_gap == 0:
        return series

    at, values = series.at, series.values
    missing = np.diff(at) // step - 1
    missing[(missing < 1) | (missing > max_gap)] = 0
    # fill number k of the gap after observation i, for each filled instant
    i = np.repeat(np.arange(missing.size), missing)
    k = np.arange(1, i.size + 1) - np.repeat(np.cumsum(missing) - missing, missing)
    # a difference of opposite-signed values near the float limit overflows to
    # inf, which TimeSeries refuses as non-finite
    with np.errstate(over="ignore"):
        filled = values[i] + (k * step / (at[i + 1] - at[i])) * (values[i + 1] - values[i])
    return TimeSeries(
        series.granularity, np.insert(at, i + 1, at[i] + k * step), np.insert(values, i + 1, filled)
    )


def split_holdout(series: TimeSeries, spec: SplitSpec) -> tuple[TimeSeries, TimeSeries]:
    """Split into (train, trailing test) without shuffling.

    Fraction-based splits enforce a 10-observation training floor; an
    explicit count is taken as deliberate and only requires both segments to
    be non-empty (model fitting applies its own length guards).
    """
    n = len(series)
    n_test = spec.test_size(n)
    n_train = n - n_test
    floor = _MIN_TRAIN if spec.fraction is not None else 1
    if n_test < 1 or n_train < floor:
        raise SplitError(
            f"split leaves train={n_train}, test={n_test}; need train >= "
            f"{floor} and test >= 1"
        )
    train = TimeSeries(series.granularity, series.at[:n_train], series.values[:n_train])
    test = TimeSeries(series.granularity, series.at[n_train:], series.values[n_train:])
    return train, test


def append_observation(series: TimeSeries, at: int, value: float) -> TimeSeries:
    """Return a new series with one observation appended at the end.

    ``series`` already keeps :class:`TimeSeries`' rules, so they are checked on
    its last observation and the new one alone: a call costs the two copies,
    not a pass over the whole series. The refusals are the constructor's.
    """
    at, value = np.int64(at), np.float64(value)
    _check_observations(
        series.granularity, np.array([*series.at[-1:], at]), np.array([*series.values[-1:], value])
    )
    extended = object.__new__(TimeSeries)
    object.__setattr__(extended, "granularity", series.granularity)
    _freeze(extended, np.append(series.at, at), np.append(series.values, value))
    return extended
