"""Sliding-window feedforward forecaster trained by mini-batch gradient descent.

The network maps the last ``window`` values of a series to the next value.
It has one hidden layer: ``window`` inputs, ``hidden`` units with a chosen
activation, and one linear output, so regression targets stay unbounded.
Inputs and targets are standardized by the training-set mean/std (stored on
the model). Backpropagation computes the exact gradient of the mean squared
error.
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

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class MlpForecaster:
    """Immutable trained network, window -> hidden -> 1.

    ``weights`` is (hidden x window, 1 x hidden) and ``biases`` is (hidden,
    1); the window and layer sizes are read off those shapes.
    """

    weights: tuple[np.ndarray, np.ndarray]
    biases: tuple[np.ndarray, np.ndarray]
    hidden_activation: Activation
    scaler: Scaler
    train_loss: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        shapes = [np.shape(a) for a in (*self.weights, *self.biases)]
        one_hidden = len(self.weights) == len(self.biases) == 2 and len(shapes[0]) == 2
        hidden = shapes[0][0] if one_hidden else 0
        if hidden < 1 or shapes[0][1] < 1 or shapes[1:] != [(1, hidden), (hidden,), (1,)]:
            raise DimensionError(f"weight and bias shapes {shapes} are not window -> hidden -> 1")
        for arr in (*self.weights, *self.biases):
            arr.setflags(write=False)

    @property
    def window(self) -> int:
        return self.weights[0].shape[1]

    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        hidden, window = self.weights[0].shape
        return (window, hidden, 1)

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
        """Refuses a file whose ``window`` or ``layer_sizes`` disagree with its
        weights, or that holds other than one hidden layer."""
        sizes = tuple(data["layer_sizes"])
        if len(sizes) != 3 or len(data["weights"]) != 2:
            raise DimensionError(f"layer_sizes {list(sizes)} is not window -> hidden -> 1")
        net = cls(
            weights=tuple(
                np.array(flat, dtype=np.float64).reshape(sizes[k + 1], sizes[k])
                for k, flat in enumerate(data["weights"])
            ),
            biases=tuple(np.array(b, dtype=np.float64) for b in data["biases"]),
            hidden_activation=Activation(data["hidden_activation"]),
            scaler=Scaler(**data["scaler"]),
            train_loss=data.get("train_loss"),
        )
        if data["window"] != net.window:
            raise DimensionError(f"window {data['window']} does not match layer_sizes {list(sizes)}")
        return net


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
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a (features x batch) matrix; returns the hidden activations
    and the (1 x batch) outputs."""
    hidden = activation(act, weights[0] @ inputs + biases[0][:, None])
    return hidden, weights[1] @ hidden + biases[1][:, None]


def _loss(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act: Activation,
    x: np.ndarray,
    t: np.ndarray,
) -> float:
    """Mean squared error on scaled data; ``x`` is (features x batch), ``t``
    is (batch,)."""
    residual = _forward_pass(weights, biases, act, x)[1][0] - t
    return float(np.mean(residual**2))


def _grads(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act: Activation,
    x: np.ndarray,
    t: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The exact gradient of :func:`_loss` w.r.t. weights and biases."""
    hidden, outputs = _forward_pass(weights, biases, act, x)
    delta = (2.0 * (outputs[0] - t) / t.size)[None, :]
    d_w_out = delta @ hidden.T
    d_b_out = delta.sum(axis=1)
    delta = weights[1].T @ delta
    if act is Activation.TANH:  # tanh' written in terms of tanh's output
        delta *= 1.0 - hidden**2
    return [delta @ x.T, d_w_out], [delta.sum(axis=1), d_b_out]


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


def batch_loss(net: MlpForecaster, batch: Sequence[tuple[np.ndarray, float]]) -> float:
    """Training objective on a batch (standardized space)."""
    x, t = _scale_batch(net, batch)
    return _loss(net.weights, net.biases, net.hidden_activation, x, t)


def gradient(
    net: MlpForecaster, batch: Sequence[tuple[np.ndarray, float]]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of :func:`batch_loss` w.r.t. weights and biases."""
    x, t = _scale_batch(net, batch)
    return _grads(net.weights, net.biases, net.hidden_activation, x, t)


def forward(net: MlpForecaster, inputs: Sequence[float]) -> float:
    """One prediction in original units for a window of raw values."""
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.shape != (net.window,):
        raise DimensionError(f"expected {net.window} inputs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("inputs must be finite")
    scaled = (arr - net.scaler.shift) / net.scaler.scale
    _, outputs = _forward_pass(net.weights, net.biases, net.hidden_activation, scaled[:, None])
    return float(outputs[0, 0] * net.scaler.scale + net.scaler.shift)


def _glorot(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def train(
    series: TimeSeries,
    w: int,
    hidden: int,
    hidden_activation: Activation,
    cfg: TrainConfig,
) -> MlpForecaster:
    """Mini-batch gradient descent; returns the best-epoch parameters.

    ``hidden`` is the hidden layer's unit count. Deterministic given cfg.seed
    (initialization and batch order). The returned network carries the lowest
    full-training-set loss seen, which is never above the loss of the initial
    parameters.
    """
    if hidden < 1:
        raise ValueError("hidden must be a positive unit count")
    inputs, targets = make_windows(series, w)

    with np.errstate(over="ignore"):
        mean, std = float(np.mean(series.values)), float(np.std(series.values))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DivergenceError("the training values' mean or spread is not finite")
    scaler = Scaler(shift=mean, scale=std if std > 0 else 1.0)
    x_all = (inputs.T - scaler.shift) / scaler.scale
    t_all = (targets - scaler.shift) / scaler.scale
    n = t_all.size

    rng = np.random.default_rng(cfg.seed)
    weights = (_glorot(w, hidden, rng), _glorot(hidden, 1, rng))
    biases = (np.zeros(hidden), np.zeros(1))
    (w_hid, w_out), (b_hid, b_out) = weights, biases  # updated in place below

    best_loss = _loss(weights, biases, hidden_activation, x_all, t_all)
    best = (w_hid.copy(), w_out.copy()), (b_hid.copy(), b_out.copy())

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                (d_w_hid, d_w_out), (d_b_hid, d_b_out) = _grads(
                    weights, biases, hidden_activation, x_all[:, idx], t_all[idx]
                )
                w_hid -= cfg.learning_rate * d_w_hid
                b_hid -= cfg.learning_rate * d_b_hid
                w_out -= cfg.learning_rate * d_w_out
                b_out -= cfg.learning_rate * d_b_out
            loss = _loss(weights, biases, hidden_activation, x_all, t_all)
        if not np.isfinite(loss):
            raise DivergenceError("training loss became non-finite")
        if loss < best_loss:
            best_loss = loss
            best = (w_hid.copy(), w_out.copy()), (b_hid.copy(), b_out.copy())

    return MlpForecaster(*best, hidden_activation, scaler, train_loss=best_loss)


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
