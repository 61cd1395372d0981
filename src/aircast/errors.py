"""Exception hierarchy shared across the toolkit.

Every domain failure derives from :class:`AircastError` so callers (and the
CLI exit-code mapping) can catch toolkit errors without swallowing genuine
bugs. Plain argument-validation mistakes raise ``ValueError`` as usual.
"""

from __future__ import annotations


class AircastError(Exception):
    """Base class for all toolkit-level failures."""


class GranularityError(AircastError):
    """An operation received a series at an unsupported granularity."""


class EmptySeriesError(AircastError):
    """A series (or a filtered/aggregated result) ended up with no data."""


class NonFiniteMeanError(AircastError):
    """The mean of finite values overflowed."""


class EmptyInputError(AircastError):
    """A statistic was requested over an empty collection of values."""


class LengthError(AircastError):
    """A sequence is too short for the requested transformation."""


class SeedError(AircastError):
    """Integration seeds do not match the differencing order."""


class SplitError(AircastError):
    """A train/test split request cannot be satisfied."""


class SchemaError(AircastError):
    """Required columns are missing from an input header."""


class TooShortError(AircastError):
    """Not enough observations to fit or forecast a model."""


class TooLongError(AircastError, ValueError):
    """More observations than a model accepts (the exact GP's training cap)."""


class NonStationaryError(AircastError):
    """Autoregressive coefficients have a root inside/on the unit circle."""


class OptimizerFailure(AircastError):
    """The parameter search produced no usable optimum."""


class NoConvergedModelError(AircastError):
    """Every candidate in an order-selection grid failed to converge."""


class DimensionError(AircastError):
    """Network layer shapes and inputs do not chain."""


class DivergenceError(AircastError):
    """Training loss became non-finite."""


class FactorizationError(AircastError):
    """A kernel matrix stayed indefinite after maximum jitter."""


class NoValidFitError(AircastError):
    """Every hyperparameter grid cell failed."""


class LengthMismatchError(AircastError):
    """Paired sequences differ in length."""


class EvaluationError(AircastError):
    """A forecaster failed mid-evaluation; carries the failing test index."""
