"""The forecaster contract, rolling one-step evaluation and the per-station
model comparison.

Each model is one :class:`Forecaster` (``fit``, ``forecast``, ``to_dict``,
``load``), and the CLI's ``forecast`` and ``evaluate`` stages build and drive
the same adapters. Callers pass the instants to predict: ``forecast`` fits on
the train split and asks for the steps after it, ``evaluate`` asks for each
held-out instant in turn. The GP queries exactly those instants; ARIMA and the
ANN take them as consecutive steps. Both stages go through
:func:`fit_or_load`, so a fit that ``forecast`` stored under the same
:meth:`Forecaster.fit_key` is restored instead of repeated.

Protocol: each forecaster is fitted exactly once on the train split, then
asked for one-step-ahead predictions over the holdout while true values
arrive one at a time. Parameters stay frozen — only the conditioning history
grows — so every model sees the identical information set and no future value
can leak into an earlier prediction.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import ann, arima, gp
from .errors import (
    AircastError,
    EmptyInputError,
    EvaluationError,
    LengthMismatchError,
    TooShortError,
)
from .series import SplitSpec, TimeSeries, append_observation, split_holdout

#: Comparison-table column labels per model key.
TABLE_LABELS = {"arima": "arima", "ann": "ann", "gp": "gpr"}


def _check_pair(actual: Sequence[float], predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.size != p.size:
        raise LengthMismatchError(f"actual has {a.size} values, predicted has {p.size}")
    if a.size == 0:
        raise EmptyInputError("metrics need at least one observation")
    return a, p


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error over equal-length sequences.

    Where the squared errors overflow, the errors are first scaled by their
    largest magnitude, so finite errors give a finite RMSE.
    """
    a, p = _check_pair(actual, predicted)
    errors = a - p
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(errors**2)))
    if np.isinf(value) and np.all(np.isfinite(errors)):
        scale = float(np.max(np.abs(errors)))
        value = scale * float(np.sqrt(np.mean((errors / scale) ** 2)))
    return value


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error over equal-length sequences."""
    a, p = _check_pair(actual, predicted)
    return float(np.mean(np.abs(a - p)))


@cache
def _source_digest() -> bytes:
    """SHA-256 over this package's modules, so a stored fit is trusted only
    by the code that made it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.digest()


class Forecaster(ABC):
    """One model behind the contract both model stages drive.

    ``fit`` runs once, on the train split. ``forecast`` then predicts at given
    instants after a history that starts with that split, with the fitted
    parameters frozen: the ``forecast`` stage asks for the steps after the
    train split itself, the rolling evaluation for each held-out instant in
    turn. Adapters are dataclasses whose init fields are their settings, so
    ``repr`` names everything besides the train split that decides the fit.
    """

    name: ClassVar[str]

    @abstractmethod
    def fit(self, train: TimeSeries) -> None: ...

    @abstractmethod
    def forecast(
        self, history: TimeSeries, at: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Means at the instants ``at`` after ``history``, and their variances
        where the model gives them (None otherwise)."""

    @abstractmethod
    def to_dict(self) -> dict:
        """JSON-ready summary of the train fit."""

    @abstractmethod
    def load(self, data: dict, train: TimeSeries) -> None:
        """Restore the fit that ``to_dict`` summarized as ``data``, made on ``train``."""

    def fit_key(self, train: TimeSeries) -> str:
        """SHA-256 of what decides the fit: the fitting code, the adapter and
        its settings, and the train split's instants and values."""
        digest = hashlib.sha256(_source_digest())
        digest.update(repr(self).encode("utf-8"))
        digest.update(train.at.tobytes())
        digest.update(train.values.tobytes())
        return digest.hexdigest()

    def predict_one(self, history: TimeSeries, at: int) -> float:
        """``forecast`` at the single instant ``at``."""
        means, _ = self.forecast(history, [at])
        return float(means[0])


@dataclass(eq=False)
class ArimaAdapter(Forecaster):
    """ARIMA with AIC order selection (or a pinned order) on the train split;
    the instants to predict are taken as consecutive steps after the history."""

    name: ClassVar[str] = "arima"
    order: arima.ArimaOrder | None = None
    p_max: int = 5
    d_max: int = 1
    q_max: int = 5
    model: arima.ArimaModel | None = field(default=None, init=False, repr=False)

    def fit(self, train: TimeSeries) -> None:
        if self.order is not None:
            self.model = arima.fit_arima(train, self.order)
        else:
            _, self.model = arima.select_order(train, self.p_max, self.d_max, self.q_max)

    def forecast(self, history: TimeSeries, at: Sequence[int]) -> tuple[np.ndarray, None]:
        assert self.model is not None, "fit before predicting"
        return arima.forecast(self.model, history, len(at)), None

    def to_dict(self) -> dict:
        assert self.model is not None, "fit before summarizing"
        return self.model.to_dict()

    def load(self, data: dict, train: TimeSeries) -> None:
        self.model = arima.ArimaModel.from_dict(data)


@dataclass(eq=False)
class AnnAdapter(Forecaster):
    """Window MLP (7 lags, one tanh layer of 16) trained once; predictions read
    the last window of history, and the instants to predict are taken as
    consecutive steps after it."""

    name: ClassVar[str] = "ann"
    WINDOW: ClassVar[int] = 7
    HIDDEN: ClassVar[tuple[int, ...]] = (16,)
    ACTIVATION: ClassVar[ann.Activation] = ann.Activation.TANH
    config: ann.TrainConfig = field(default_factory=ann.TrainConfig)
    net: ann.MlpForecaster | None = field(default=None, init=False, repr=False)

    def fit(self, train: TimeSeries) -> None:
        self.net = ann.train(train, self.WINDOW, self.HIDDEN, self.ACTIVATION, self.config)

    def forecast(self, history: TimeSeries, at: Sequence[int]) -> tuple[np.ndarray, None]:
        assert self.net is not None, "fit before predicting"
        return ann.forecast_recursive(self.net, history, len(at)), None

    def to_dict(self) -> dict:
        assert self.net is not None, "fit before summarizing"
        return self.net.to_dict()

    def load(self, data: dict, train: TimeSeries) -> None:
        self.net = ann.MlpForecaster.from_dict(data)


@dataclass(eq=False)
class GpAdapter(Forecaster):
    """GP with hyperparameters frozen from the train split; each forecast
    conditions the posterior on the full history and queries exactly the
    instants asked for.

    The train fit is kept, and each history that extends the points already
    conditioned on is appended to its Cholesky factor (``gp.extend_gp``), so a
    holdout step costs one triangular solve rather than a refactorization.
    A one-step prediction computes the posterior mean only.
    """

    name: ClassVar[str] = "gp"
    model: gp.GpModel | None = field(default=None, init=False, repr=False)
    _fitted: gp.GpModel | None = field(default=None, init=False, repr=False)

    def fit(self, train: TimeSeries) -> None:
        if len(train) < 10:
            raise TooShortError("need at least 10 observations to fit the GP")
        params, noise_variance = gp.fit_hyperparameters(
            gp.day_indices(train.at, train.at[0]), train.values, *gp.default_grids(train.values)
        )
        self._fit_at(train, params, noise_variance)

    def load(self, data: dict, train: TimeSeries) -> None:
        # one factorization at the stored hyperparameters, no grid search
        params = gp.SeKernelParams(data["amplitude"], data["length_scale"])
        self._fit_at(train, params, data["noise_variance"])

    def _fit_at(
        self, train: TimeSeries, params: gp.SeKernelParams, noise_variance: float
    ) -> None:
        x = gp.day_indices(train.at, train.at[0])
        self.model = self._fitted = gp.fit_gp(x, train.values, params, noise_variance)

    def _extend(self, history: TimeSeries, at: Sequence[int]) -> tuple[gp.GpModel, np.ndarray]:
        """The fit conditioned on ``history``, and the day indices of ``at``, both
        counted from the history's first instant: the train split's, as in the fit."""
        assert self.model is not None, "fit before predicting"
        base_at = history.at[0]
        self.model = gp.extend_gp(self.model, gp.day_indices(history.at, base_at), history.values)
        return self.model, gp.day_indices(at, base_at)

    def forecast(self, history: TimeSeries, at: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return gp.posterior(*self._extend(history, at))

    def predict_one(self, history: TimeSeries, at: int) -> float:
        return float(gp.posterior_mean(*self._extend(history, [at]))[0])

    def to_dict(self) -> dict:
        assert self._fitted is not None, "fit before summarizing"
        return self._fitted.to_summary_dict()


@dataclass(frozen=True)
class ModelEval:
    rmse: float
    mae: float
    predictions: np.ndarray
    actuals: np.ndarray

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mae": self.mae,
            "predictions": self.predictions.tolist(),
            "actuals": self.actuals.tolist(),
        }


@dataclass
class EvalReport:
    station: str
    split: str
    models: dict[str, ModelEval] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "station": self.station,
            "split": self.split,
            "models": {name: ev.to_dict() for name, ev in self.models.items()},
            "errors": dict(self.errors),
        }


def rolling_one_step(
    adapter: Forecaster, train: TimeSeries, test: TimeSeries
) -> tuple[np.ndarray, np.ndarray]:
    """One-step predictions over the holdout, feeding true values as they arrive.

    The adapter must already be fitted on ``train``; its parameters are not
    touched here. Prediction i sees train plus test[0..i) only, and is asked
    for at test instant i (an instant, never a value).
    """
    history = train
    predictions = np.empty(len(test))
    for i in range(len(test)):
        try:
            predictions[i] = adapter.predict_one(history, int(test.at[i]))
        except AircastError as exc:
            raise EvaluationError(
                f"model {adapter.name!r} failed at test index {i}: {exc}"
            ) from exc
        history = append_observation(history, int(test.at[i]), float(test.values[i]))
    return predictions, test.values.copy()


def fit_or_load(adapter: Forecaster, train: TimeSeries, path: Path) -> str:
    """Fit ``adapter`` on ``train``, or restore it from the model JSON at
    ``path`` when that file's ``fit_key`` is this fit's key; returns the key.

    A missing or unreadable file, one ``load`` refuses, or one made from other
    data, settings or code, means a fresh fit. Nothing is written here.
    """
    key = adapter.fit_key(train)
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        if isinstance(stored, dict) and stored.pop("fit_key", None) == key:
            adapter.load(stored, train)
            return key
    except (OSError, ValueError, KeyError, TypeError, AircastError):
        pass
    adapter.fit(train)
    return key


def compare_models(
    series: TimeSeries,
    spec: SplitSpec,
    adapters: Sequence[Forecaster],
    station: str = "",
    model_paths: Mapping[str, Path] | None = None,
) -> EvalReport:
    """Fit and evaluate every adapter on the identical split.

    An adapter named in ``model_paths`` goes through :func:`fit_or_load` with
    that path, so a stored fit of the same split is reused. Per-model failures
    are recorded in the report instead of aborting the other models.
    """
    if not adapters:
        raise ValueError("model set must be non-empty")
    train, test = split_holdout(series, spec)
    report = EvalReport(station=station, split=spec.describe())
    for adapter in adapters:
        try:
            path = (model_paths or {}).get(adapter.name)
            if path is None:
                adapter.fit(train)
            else:
                fit_or_load(adapter, train, path)
            predictions, actuals = rolling_one_step(adapter, train, test)
            report.models[adapter.name] = ModelEval(
                rmse=rmse(actuals, predictions),
                mae=mae(actuals, predictions),
                predictions=predictions,
                actuals=actuals,
            )
        except AircastError as exc:
            report.errors[adapter.name] = str(exc)
    return report


def comparison_table(
    reports: Sequence[EvalReport], model_names: Sequence[str]
) -> tuple[list[str], list[list]]:
    """Stations-by-metrics table: RMSE columns for every model, then MAE."""
    labels = [TABLE_LABELS.get(name, name) for name in model_names]
    header = (
        ["station"]
        + [f"rmse_{label}" for label in labels]
        + [f"mae_{label}" for label in labels]
    )
    rows = []
    for report in reports:
        row: list = [report.station]
        for metric in ("rmse", "mae"):
            for name in model_names:
                ev = report.models.get(name)
                row.append(getattr(ev, metric) if ev is not None else "")
        rows.append(row)
    return header, rows
