"""Trend analysis and forecasting toolkit for PM2.5 low-cost sensor networks."""

from .series import (
    Granularity,
    SplitSpec,
    TimeSeries,
    difference,
    interpolate_gaps,
    inverse_difference,
    resample_mean,
    split_holdout,
)

__all__ = [
    "Granularity",
    "SplitSpec",
    "TimeSeries",
    "difference",
    "interpolate_gaps",
    "inverse_difference",
    "resample_mean",
    "split_holdout",
]

__version__ = "0.1.0"
