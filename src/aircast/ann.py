"""Sliding-window feedforward forecaster trained by Levenberg–Marquardt.

The network maps the last ``window`` values of a series to the next value
through one hidden layer (a chosen activation) and one linear output, so
targets stay unbounded. Inputs and targets are standardized by the training
mean/std, kept on the model. Damped Gauss–Newton steps (Hagan & Menhaj 1994)
use the exact residual Jacobian, summed a block of windows at a time; the
last windows, never stepped on, choose the kept iteration (Prechelt 1998).
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


#: The share of windows held out (the last, in time order); the iterations
#: without a held-out improvement that stop training; the damping's start and
#: the cap past which no step is tried; the windows per Jacobian block.
VALIDATION_SHARE, PATIENCE, MU_START, MU_MAX, BLOCK = 0.2, 10, 1e-3, 1e10, 1024
#: Training diagnostics a model carries, in their JSON order.
DIAGNOSTICS = ("kept_iteration", "final_mu", "validation_loss", "fit_loss_curve",
               "validation_loss_curve")
Params = Sequence[np.ndarray]
Batch = Sequence[tuple[np.ndarray, float]]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200  # the cap on Levenberg–Marquardt iterations
    seed: int = 0  # draws the initial weights

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class MlpForecaster:
    """Immutable trained network, window -> hidden -> 1.

    ``weights`` is (hidden x window, 1 x hidden) and ``biases`` is (hidden,
    1); the window and layer sizes are read off those shapes. ``diagnostics``
    holds :data:`DIAGNOSTICS`; a loss curve's entry k follows k iterations.
    """

    weights: tuple[np.ndarray, np.ndarray]
    biases: tuple[np.ndarray, np.ndarray]
    hidden_activation: Activation
    scaler: Scaler
    train_loss: float | None = field(default=None, compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)

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
            **self.diagnostics,
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
            diagnostics={key: data[key] for key in DIAGNOSTICS if key in data},
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
    weights: Params, biases: Params, act: Activation, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate (features x batch) inputs; returns hidden activations and (1 x batch) outputs."""
    hidden = activation(act, weights[0] @ inputs + biases[0][:, None])
    return hidden, weights[1] @ hidden + biases[1][:, None]


def _loss(weights: Params, biases: Params, act: Activation, x: np.ndarray, t: np.ndarray) -> float:
    """Mean squared error on scaled data; ``x`` is (features x batch)."""
    residual = _forward_pass(weights, biases, act, x)[1][0] - t
    return float(np.mean(residual**2))


def _unflatten(theta: np.ndarray, hidden: int, w: int) -> tuple[tuple, tuple]:
    """(weights, biases) as views of the flat parameters: hidden weights row
    by row, output weights, hidden biases, output bias."""
    w_hid, w_out, b_hid, b_out = np.split(theta, np.cumsum([hidden * w, hidden, hidden]))
    return (w_hid.reshape(hidden, w), w_out.reshape(1, hidden)), (b_hid, b_out)


def _normal_equations(
    weights: Params, biases: Params, act: Activation, x: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ and Jᵀr for the residuals outputs - targets, parameters in :func:`_unflatten`'s
    order, summed over blocks of at most :data:`BLOCK` windows (columns of ``x``)."""
    jtj = jtr = 0.0  # arrays from the first block on
    for start in range(0, t.size, BLOCK):
        xb = x[:, start : start + BLOCK]
        hidden, outputs = _forward_pass(weights, biases, act, xb)
        # d output / d hidden pre-activation; tanh' written in terms of tanh's output
        d_pre = weights[1].T * (1.0 - hidden**2 if act is Activation.TANH else np.ones_like(hidden))
        d_w_hid = (d_pre[:, None, :] * xb[None, :, :]).reshape(-1, xb.shape[1])
        jt = np.concatenate([d_w_hid, hidden, d_pre, np.ones((1, xb.shape[1]))])
        jtj += jt @ jt.T
        jtr += jt @ (outputs[0] - t[start : start + BLOCK])
    return jtj, jtr


def _scale_batch(net: MlpForecaster, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("batch must be non-empty")
    for inp, _ in batch:
        if np.asarray(inp).shape != (net.window,):
            raise DimensionError(f"inputs must have shape ({net.window},)")
    x = np.stack([np.asarray(inp, dtype=np.float64) for inp, _ in batch], axis=1)
    t = np.array([target for _, target in batch], dtype=np.float64)
    s = net.scaler
    return (x - s.shift) / s.scale, (t - s.shift) / s.scale


def batch_loss(net: MlpForecaster, batch: Batch) -> float:
    """Training objective on a batch (standardized space)."""
    x, t = _scale_batch(net, batch)
    return _loss(net.weights, net.biases, net.hidden_activation, x, t)


def gradient(net: MlpForecaster, batch: Batch) -> tuple[tuple, tuple]:
    """Exact gradient of :func:`batch_loss` w.r.t. (weights, biases):
    (2/n)·Jᵀr, from the Jacobian the trainer steps with."""
    x, t = _scale_batch(net, batch)
    _, jtr = _normal_equations(net.weights, net.biases, net.hidden_activation, x, t)
    return _unflatten(2.0 / t.size * jtr, *net.weights[0].shape)


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


def train(
    series: TimeSeries, w: int, hidden: int, hidden_activation: Activation, cfg: TrainConfig
) -> MlpForecaster:
    """Levenberg–Marquardt with held-out stopping; returns the kept iteration.

    ``hidden`` is the hidden layer's unit count. Steps fit all but the last
    :data:`VALIDATION_SHARE` of the windows, each solving (JᵀJ + μI)δ = −Jᵀr;
    μ falls tenfold after a step that lowers the fit loss, else rises tenfold
    and the step is retried. Training stops after ``cfg.epochs`` iterations,
    :data:`PATIENCE` past the best held-out loss, or when μ passes
    :data:`MU_MAX`. The kept iteration (0: the initial weights) has the lowest
    held-out loss. Under 5 windows, none is held out and all choose.
    """
    if hidden < 1:
        raise ValueError("hidden must be a positive unit count")
    inputs, targets = make_windows(series, w)
    with np.errstate(over="ignore"):
        mean, std = float(np.mean(series.values)), float(np.std(series.values))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DivergenceError("the training values' mean or spread is not finite")
    scaler = Scaler(shift=mean, scale=std if std > 0 else 1.0)
    x_all, t_all = ((a - scaler.shift) / scaler.scale for a in (inputs.T, targets))
    n_fit = t_all.size - int(VALIDATION_SHARE * t_all.size)
    fit = x_all[:, :n_fit], t_all[:n_fit]
    held = (x_all[:, n_fit:], t_all[n_fit:]) if n_fit < t_all.size else fit

    rng = np.random.default_rng(cfg.seed)  # Glorot-uniform weights, zero biases
    limits = np.sqrt(6.0 / (w + hidden)), np.sqrt(6.0 / (hidden + 1))
    theta = np.concatenate([rng.uniform(-limits[0], limits[0], hidden * w),
                            rng.uniform(-limits[1], limits[1], hidden), np.zeros(hidden + 1)])

    def loss(theta: np.ndarray, data: tuple[np.ndarray, np.ndarray]) -> float:
        return _loss(*_unflatten(theta, hidden, w), hidden_activation, *data)

    fit_curve, held_curve = [loss(theta, fit)], [loss(theta, held)]
    best, kept, mu, damping = theta, 0, MU_START, np.eye(theta.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, cfg.epochs + 1):
            jtj, jtr = _normal_equations(*_unflatten(theta, hidden, w), hidden_activation, *fit)
            while mu <= MU_MAX:
                trial = theta - np.linalg.solve(jtj + mu * damping, jtr)
                if (trial_loss := loss(trial, fit)) < fit_curve[-1]:
                    break
                mu *= 10.0
            else:
                break  # no damping up to the cap lowers the fit loss
            theta, mu = trial, mu / 10.0
            fit_curve.append(trial_loss)
            held_curve.append(loss(theta, held))
            if held_curve[-1] < held_curve[kept]:
                best, kept = theta, iteration
            elif iteration - kept >= PATIENCE:
                break

    diagnostics = dict(zip(DIAGNOSTICS, (kept, mu, held_curve[kept], fit_curve, held_curve)))
    return MlpForecaster(*_unflatten(best, hidden, w), hidden_activation, scaler,
                         train_loss=fit_curve[kept], diagnostics=diagnostics)


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
