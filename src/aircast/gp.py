"""Gaussian-process regression over time indices with a squared-exponential
kernel.

Kernel convention used throughout: k(x, x') = amplitude * exp(-(x-x')^2 / l^2)
— the amplitude multiplies unsquared and the exponent carries no 1/2 factor,
so k(x, x) equals the amplitude exactly. Observation noise enters the Gram
matrix as noise_variance * I. A fit stores one form: the Cholesky factor L
(found with bounded jitter escalation; the kernel matrix is never inverted
explicitly) and the whitened targets L⁻¹[y, 1]. Its posteriors take one
triangular solve per query and its log marginal likelihood none. Conditioning
on further points extends the factor and the whitened targets by one row per
point instead of refactorizing. The hyperparameter search factorizes nothing:
it scores every grid cell from one eigendecomposition of the unit-amplitude
kernel matrix per length scale, and only the chosen cell is fitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular

from .errors import FactorizationError, NonFiniteMeanError, NoValidFitError, TooLongError

_MAX_TRAIN = 2000
_JITTER_EXPONENTS = range(-10, -3)  # jitter is 10**k times the amplitude

#: Grid defaults for hyperparameter search (variance factors and day units).
DEFAULT_AMPLITUDE_FACTORS = (0.5, 1.0, 2.0)
DEFAULT_LENGTH_SCALES = (3.0, 7.0, 14.0, 30.0, 60.0)
DEFAULT_NOISE_FACTORS = (0.05, 0.1, 0.25, 0.5)

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class SeKernelParams:
    amplitude: float
    length_scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError("amplitude must be finite and positive")
        if not (np.isfinite(self.length_scale) and self.length_scale > 0):
            raise ValueError("length_scale must be finite and positive")


def _cross_kernel(
    train: np.ndarray, test: np.ndarray, params: SeKernelParams
) -> np.ndarray:
    diff = train[:, None] - test[None, :]
    return params.amplitude * np.exp(-(diff * diff) / params.length_scale**2)


def gram_matrix(xs: Sequence[float], params: SeKernelParams) -> np.ndarray:
    """Pairwise kernel matrix; exactly symmetric with ``amplitude`` on the diagonal."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("xs must be non-empty")
    return _cross_kernel(arr, arr, params)


@dataclass(frozen=True)
class GpModel:
    """Fitted model: hyperparameters, the lower Cholesky factor L of the
    regularized Gram matrix, the targets y and ``whitened`` = L⁻¹[y, 1], whose
    columns v and w centre on the targets' mean ō as L⁻¹(y − ō1) = v − ōw
    (Rasmussen & Williams 2006, Alg. 2.1)."""

    params: SeKernelParams
    noise_variance: float
    train_inputs: np.ndarray = field(repr=False)
    train_targets: np.ndarray = field(repr=False)
    chol_lower: np.ndarray = field(repr=False)
    jitter: float
    whitened: np.ndarray = field(repr=False)  # columns v and w

    def __len__(self) -> int:
        return int(self.train_inputs.size)

    @property
    def offset(self) -> float:
        """ō, the targets' mean, which the posterior means revert to."""
        return float(np.mean(self.train_targets))

    def _centred(self) -> np.ndarray:
        v, w = self.whitened.T
        return v - self.offset * w

    def to_summary_dict(self) -> dict:
        return {
            "amplitude": self.params.amplitude,
            "length_scale": self.params.length_scale,
            "noise_variance": self.noise_variance,
            "n_train": len(self),
            "offset": self.offset,
            "jitter": self.jitter,
            "log_marginal_likelihood": log_marginal_likelihood(self),
        }


def _check_training(x: np.ndarray, y: np.ndarray, noise_variance: float) -> None:
    if x.size != y.size:
        raise ValueError("times and values must have equal length")
    if x.size == 0:
        raise ValueError("need at least one training point")
    if x.size > _MAX_TRAIN:
        raise TooLongError(
            f"exact GP is capped at {_MAX_TRAIN} training points, got {x.size}"
        )
    if np.unique(x).size != x.size:
        raise ValueError("training times must be distinct")
    if noise_variance < 0:
        raise ValueError("noise_variance must be non-negative")


def _check_targets(y: np.ndarray) -> None:
    """ValueError for a target that is not finite; NonFiniteMeanError where
    finite targets' mean, the centre of every posterior, overflows."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.mean(np.asarray_chkfinite(y))):
            raise NonFiniteMeanError("the GP training values' mean is not finite")


def _whiten(lower: np.ndarray, y: np.ndarray) -> np.ndarray:
    return solve_triangular(lower, np.column_stack([y, np.ones_like(y)]), lower=True)


def fit_gp(
    times: Sequence[float],
    values: Sequence[float],
    params: SeKernelParams,
    noise_variance: float,
) -> GpModel:
    """Factorize K + noise·I (+ jitter·I) and whiten the targets through it.

    Jitter runs through the seven values 1e-10·amplitude, 1e-9·amplitude, …,
    1e-4·amplitude before giving up with FactorizationError. More than 2000
    training points raise TooLongError, a target that is not finite
    ValueError, and finite targets whose mean overflows NonFiniteMeanError.
    """
    x = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    _check_training(x, y, noise_variance)
    _check_targets(y)

    base = gram_matrix(x, params) + noise_variance * np.eye(x.size)
    for exponent in _JITTER_EXPONENTS:
        jitter = 10.0**exponent * params.amplitude
        try:
            lower = cholesky(base + jitter * np.eye(x.size), lower=True)
        except np.linalg.LinAlgError:
            continue
        return GpModel(params, noise_variance, x, y, lower, jitter, _whiten(lower, y))
    raise FactorizationError(f"kernel matrix not positive definite up to jitter {jitter:g}")


def extend_gp(
    model: GpModel, times: Sequence[float], values: Sequence[float]
) -> GpModel:
    """``fit_gp(times, values, model.params, model.noise_variance)``, reusing
    the model's factor when ``times`` starts with its training inputs.

    The factor depends on the inputs only, so each appended point adds one
    row to it: one triangular solve against the rows above, with the model's
    jitter on the new diagonal (Seeger 2004). That row also appends one
    element to v and to w by forward substitution; all targets are whitened
    afresh only when the model's targets do not start ``values``. Inputs that
    do not extend the model's, or an appended pivot that is not positive, get
    a full ``fit_gp``; the checks are the same as there.
    """
    x = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    m = len(model)
    if not np.array_equal(x[:m], model.train_inputs):
        return fit_gp(x, y, model.params, model.noise_variance)
    _check_training(x, y, model.noise_variance)
    _check_targets(y)

    lower, whitened = model.chol_lower, model.whitened
    diagonal = model.params.amplitude + model.noise_variance + model.jitter
    for i in range(m, x.size):
        k = _cross_kernel(x[:i], x[i : i + 1], model.params)[:, 0]
        # a NaN from a non-finite input fails the pivot test below
        row = solve_triangular(lower, k, lower=True, check_finite=False)
        pivot = diagonal - row @ row
        if not pivot > 0.0:
            return fit_gp(x, y, model.params, model.noise_variance)
        # column-major, like LAPACK's factor, so the solves need no copy
        grown = np.zeros((i + 1, i + 1), order="F")
        grown[:i, :i] = lower
        grown[i, :i] = row
        grown[i, i] = np.sqrt(pivot)
        lower = grown
        whitened = np.vstack([whitened, ((y[i], 1.0) - row @ whitened) / grown[i, i]])
    if not np.array_equal(y[:m], model.train_targets):
        whitened = _whiten(lower, y)
    return GpModel(model.params, model.noise_variance, x, y, lower, model.jitter, whitened)


def posterior(
    model: GpModel, test_times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at the query times, from one triangular
    solve r = L⁻¹k*: the means are ō + rᵀ(v − ōw), the variances a − ‖r‖².

    Variances are the predictive diagonal of the latent function, clamped at
    zero against roundoff.
    """
    t = np.asarray(test_times, dtype=np.float64)
    k_star = np.asarray_chkfinite(_cross_kernel(model.train_inputs, t, model.params))
    r = solve_triangular(model.chol_lower, k_star, lower=True, check_finite=False)
    means = model.offset + r.T @ model._centred()
    variances = model.params.amplitude - np.einsum("ij,ij->j", r, r)
    return means, np.maximum(variances, 0.0)


def log_marginal_likelihood(model: GpModel) -> float:
    """Gaussian evidence of the centred targets under the factorized matrix;
    -inf, without a warning, where their sum of squares overflows."""
    with np.errstate(over="ignore"):
        centred = model._centred()
        quad = float(centred @ centred)
    logdet_half = float(np.sum(np.log(np.diag(model.chol_lower))))
    return -0.5 * quad - logdet_half - 0.5 * len(model) * np.log(2.0 * np.pi)


def _lml_surface(
    x: np.ndarray,
    centered: np.ndarray,
    length_scale: float,
    amplitudes: np.ndarray,
    noises: np.ndarray,
) -> np.ndarray:
    """Log marginal likelihood of every (amplitude, noise) cell at one length
    scale, NaN where no jitter leaves the matrix positive definite.

    One eigendecomposition Q diag(lam) Q^T of R, the ``gram_matrix`` of ``x``
    at amplitude 1, serves every cell: a*R + (noise + jitter)*I has the
    eigenvectors Q and the eigenvalues a*lam + noise + jitter (Rasmussen &
    Williams 2006, §2.2, §5.4), so a cell's quadratic form and log-determinant
    cost O(n). Each cell takes the first of ``fit_gp``'s jitters that leaves
    every eigenvalue positive.
    """
    unit = gram_matrix(x, SeKernelParams(1.0, length_scale))
    lam, vectors = eigh(unit, overwrite_a=True, driver="evd")
    projected_sq = (vectors.T @ centered) ** 2
    constant = centered.size * np.log(2.0 * np.pi)
    surface = np.full((amplitudes.size, noises.size), np.nan)
    for (i, amplitude), (j, noise) in itertools.product(enumerate(amplitudes), enumerate(noises)):
        for exponent in _JITTER_EXPONENTS:
            spectrum = amplitude * lam + noise + 10.0**exponent * amplitude
            if spectrum.min() > 0.0:
                quad = np.sum(projected_sq / spectrum)
                surface[i, j] = -0.5 * (quad + np.sum(np.log(spectrum)) + constant)
                break
    return surface


def fit_hyperparameters(
    times: Sequence[float],
    values: Sequence[float],
    noises: Sequence[float],
    amplitudes: Sequence[float],
    length_scales: Sequence[float],
) -> tuple[SeKernelParams, float]:
    """Exhaustive grid search maximizing the log marginal likelihood.

    Cells are scored from one eigendecomposition per length scale
    (``_lml_surface``), not factorized; the caller fits the chosen cell with
    ``fit_gp``. Ties prefer the larger length scale (smoother fit), then the
    smaller amplitude, then the earlier noise. Cells that no jitter makes
    positive definite are skipped; if all are, NoValidFitError is raised.
    ``fit_gp``'s input checks, the 2000-point cap among them, run before any
    n x n matrix is built.
    """
    grids = [np.asarray(grid, dtype=np.float64) for grid in (noises, amplitudes, length_scales)]
    if any(grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)) for grid in grids):
        raise ValueError("each grid must be non-empty with finite positive entries")
    noise_grid, amplitude_grid, length_grid = grids
    x = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    _check_training(x, y, float(noise_grid.min()))
    # centred as fit_gp's posteriors are, and refused where fit_gp refuses the
    # targets, though as a ValueError where it is their mean that overflows
    centered = np.asarray_chkfinite(y - np.mean(y))

    best_key: tuple[float, float, float] | None = None  # lml, l, -amplitude
    best: tuple[SeKernelParams, float] | None = None
    for length_scale in length_grid:
        surface = _lml_surface(x, centered, length_scale, amplitude_grid, noise_grid)
        for (i, j), lml in np.ndenumerate(surface):
            key = (float(lml), float(length_scale), -float(amplitude_grid[i]))
            # strict, so a full tie keeps the earlier noise; a skipped cell never wins
            if not np.isnan(lml) and (best_key is None or key > best_key):
                params = SeKernelParams(float(amplitude_grid[i]), float(length_scale))
                best_key, best = key, (params, float(noise_grid[j]))
    if best is None:
        raise NoValidFitError("every hyperparameter grid cell failed factorization")
    return best


def default_grids(
    values: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(noise, amplitude, length-scale) grids scaled to the target variance, which
    must be finite: no grid can be scaled to one that overflows (NoValidFitError)."""
    with np.errstate(over="ignore"):
        base = float(np.var(np.asarray(values, dtype=np.float64))) or 1.0
    if not np.isfinite(base):
        raise NoValidFitError("the training values' variance is not finite")
    noise = tuple(f * base for f in DEFAULT_NOISE_FACTORS)
    amplitude = tuple(f * base for f in DEFAULT_AMPLITUDE_FACTORS)
    return noise, amplitude, DEFAULT_LENGTH_SCALES


def day_indices(at: Sequence[int], base_at: int) -> np.ndarray:
    """Epoch instants as (possibly fractional) days after the instant ``base_at``."""
    return (np.asarray(at, dtype=np.int64) - base_at) / SECONDS_PER_DAY
