"""Sliding-window feedforward forecaster trained by mini-batch gradient descent.

The network maps the last ``window`` values of a series to the next value.
Inputs and targets are standardized by the training-set mean/std (stored on
the model); hidden layers use a configurable activation, the output layer is
always linear so regression targets stay unbounded. Backpropagation computes
the exact gradient of mean squared error plus an L2 weight penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DivergenceError, TooShortError
from .series import TimeSeries


class Activation(Enum):
    """Hidden-layer activation. The pipeline uses ``TANH``; ``IDENTITY`` makes
    the network an affine map, an exact linear oracle for forward, training and
    recursive-forecast checks."""

    TANH = "tanh"
    IDENTITY = "identity"


def activation(kind: Activation, x: np.ndarray) -> np.ndarray:
    """Evaluate the activation elementwise."""
    return np.tanh(x) if kind is Activation.TANH else x


@dataclass(frozen=True)
class Scaler:
    """Affine standardization applied to inputs and inverted on outputs."""

    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


@dataclass(frozen=True)
class MlpForecaster:
    """Immutable trained network. weights[k] has shape (out_k, in_k)."""

    window: int
    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    hidden_activation: Activation
    scaler: Scaler
    train_loss: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 3:
            raise DimensionError("need input, at least one hidden, and output layer")
        if self.layer_sizes[0] != self.window or self.layer_sizes[-1] != 1:
            raise DimensionError("layer_sizes must run from window width to a single output")
        if len(self.weights) != len(self.layer_sizes) - 1 or len(self.biases) != len(self.weights):
            raise DimensionError("one weight matrix and bias vector per layer transition")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.layer_sizes[k + 1], self.layer_sizes[k]):
                raise DimensionError(f"weight {k} shape {w.shape} breaks the layer chain")
            if b.shape != (self.layer_sizes[k + 1],):
                raise DimensionError(f"bias {k} shape {b.shape} breaks the layer chain")
        for arr in (*self.weights, *self.biases):
            arr.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "layer_sizes": list(self.layer_sizes),
            "hidden_activation": self.hidden_activation.value,
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "scaler": {"shift": self.scaler.shift, "scale": self.scaler.scale},
            "train_loss": self.train_loss,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MlpForecaster":
        sizes = tuple(data["layer_sizes"])
        weights = tuple(
            np.array(flat, dtype=np.float64).reshape(sizes[k + 1], sizes[k])
            for k, flat in enumerate(data["weights"])
        )
        biases = tuple(np.array(b, dtype=np.float64) for b in data["biases"])
        return cls(
            window=data["window"],
            layer_sizes=sizes,
            weights=weights,
            biases=biases,
            hidden_activation=Activation(data["hidden_activation"]),
            scaler=Scaler(**data["scaler"]),
            train_loss=data.get("train_loss"),
        )


def make_windows(series: TimeSeries, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (last w values -> next value) pair: a read-only (n - w, w) view
    whose row i is ``values[i:i+w]``, oldest first, and the targets
    ``values[w:]``."""
    if w < 1:
        raise ValueError("window must be >= 1")
    values = series.values
    if values.size < w + 1:
        raise TooShortError(f"need at least {w + 1} observations, got {values.size}")
    return sliding_window_view(values[:-1], w), values[w:]


def _forward_pass(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act: Activation,
    inputs: np.ndarray,
) -> list[np.ndarray]:
    """Propagate a (features x batch) matrix; returns each layer's activations, inputs first."""
    acts: list[np.ndarray] = [inputs]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        pre = w @ acts[-1] + b[:, None]
        acts.append(pre if k == last else activation(act, pre))
    return acts


def _loss(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act: Activation,
    x: np.ndarray,
    t: np.ndarray,
    l2: float,
) -> float:
    """MSE + l2 * sum(weights^2) on scaled data.

    ``x`` is (features x batch), ``t`` is (batch,). The penalty covers weight
    matrices only, never biases.
    """
    residual = _forward_pass(weights, biases, act, x)[-1][0] - t
    return float(np.mean(residual**2)) + l2 * float(sum(np.sum(w**2) for w in weights))


def _grads(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act: Activation,
    x: np.ndarray,
    t: np.ndarray,
    l2: float,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The exact gradient of :func:`_loss` w.r.t. weights and biases."""
    acts = _forward_pass(weights, biases, act, x)
    delta = (2.0 * (acts[-1][0] - t) / t.size)[None, :]
    d_weights, d_biases = [], []
    for k in range(len(weights) - 1, -1, -1):
        d_weights.append(delta @ acts[k].T + 2.0 * l2 * weights[k])
        d_biases.append(delta.sum(axis=1))
        if k > 0:
            delta = weights[k].T @ delta
            if act is Activation.TANH:  # tanh' written in terms of tanh's output
                delta *= 1.0 - acts[k] ** 2
    return d_weights[::-1], d_biases[::-1]


def _scale_batch(
    net: MlpForecaster, batch: Sequence[tuple[np.ndarray, float]]
) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("batch must be non-empty")
    for inp, _ in batch:
        if np.asarray(inp).shape != (net.window,):
            raise DimensionError(f"inputs must have shape ({net.window},)")
    x = np.stack([np.asarray(inp, dtype=np.float64) for inp, _ in batch], axis=1)
    t = np.array([target for _, target in batch], dtype=np.float64)
    s = net.scaler
    return (x - s.shift) / s.scale, (t - s.shift) / s.scale


def batch_loss(
    net: MlpForecaster, batch: Sequence[tuple[np.ndarray, float]], l2: float = 0.0
) -> float:
    """Training objective on a batch (standardized space)."""
    x, t = _scale_batch(net, batch)
    return _loss(net.weights, net.biases, net.hidden_activation, x, t, l2)


def gradient(
    net: MlpForecaster, batch: Sequence[tuple[np.ndarray, float]], l2: float = 0.0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of :func:`batch_loss` w.r.t. weights and biases."""
    x, t = _scale_batch(net, batch)
    return _grads(net.weights, net.biases, net.hidden_activation, x, t, l2)


def forward(net: MlpForecaster, inputs: Sequence[float]) -> float:
    """One prediction in original units for a window of raw values."""
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.shape != (net.window,):
        raise DimensionError(f"expected {net.window} inputs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("inputs must be finite")
    scaled = (arr - net.scaler.shift) / net.scaler.scale
    acts = _forward_pass(net.weights, net.biases, net.hidden_activation, scaled[:, None])
    return float(acts[-1][0, 0] * net.scaler.scale + net.scaler.shift)


def _init_params(
    sizes: Sequence[int], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def train(
    series: TimeSeries,
    w: int,
    hidden: Sequence[int],
    hidden_activation: Activation,
    cfg: TrainConfig,
) -> MlpForecaster:
    """Mini-batch gradient descent; returns the best-epoch parameters.

    Deterministic given cfg.seed (initialization and batch order). The
    returned network carries the lowest full-training-set loss seen, which is
    never above the loss of the initial parameters.
    """
    if not hidden or any(h < 1 for h in hidden):
        raise ValueError("hidden must be a non-empty sequence of positive sizes")
    inputs, targets = make_windows(series, w)
    sizes = (w, *hidden, 1)

    with np.errstate(over="ignore"):
        mean, std = float(np.mean(series.values)), float(np.std(series.values))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DivergenceError("the training values' mean or spread is not finite")
    scaler = Scaler(shift=mean, scale=std if std > 0 else 1.0)
    x_all = (inputs.T - scaler.shift) / scaler.scale
    t_all = (targets - scaler.shift) / scaler.scale
    n = t_all.size

    rng = np.random.default_rng(cfg.seed)
    weights, biases = _init_params(sizes, rng)

    best_loss = _loss(weights, biases, hidden_activation, x_all, t_all, cfg.l2)
    best_weights = [w_.copy() for w_ in weights]
    best_biases = [b.copy() for b in biases]

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                d_w, d_b = _grads(
                    weights, biases, hidden_activation, x_all[:, idx], t_all[idx], cfg.l2
                )
                for k in range(len(weights)):
                    weights[k] -= cfg.learning_rate * d_w[k]
                    biases[k] -= cfg.learning_rate * d_b[k]
            loss = _loss(weights, biases, hidden_activation, x_all, t_all, cfg.l2)
        if not np.isfinite(loss):
            raise DivergenceError("training loss became non-finite")
        if loss < best_loss:
            best_loss = loss
            best_weights = [w_.copy() for w_ in weights]
            best_biases = [b.copy() for b in biases]

    return MlpForecaster(
        window=w,
        layer_sizes=sizes,
        weights=tuple(best_weights),
        biases=tuple(best_biases),
        hidden_activation=hidden_activation,
        scaler=scaler,
        train_loss=best_loss,
    )


def forecast_recursive(net: MlpForecaster, history: TimeSeries, horizon: int) -> np.ndarray:
    """Multi-step forecast feeding each prediction back as the newest lag."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if len(history) < net.window:
        raise TooShortError(f"history must hold at least {net.window} observations")
    lags = history.values[-net.window :].tolist()
    preds = np.empty(horizon)
    for h in range(horizon):
        preds[h] = forward(net, lags)
        lags = lags[1:] + [preds[h]]
    return preds
