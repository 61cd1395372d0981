"""AR/MA/ARIMA modeling: conditional-sum-of-squares fitting, order
selection by AIC, and mean forecasting.

Model form (identifiable single-intercept parameterization):

    Y_t = alpha + sum_i beta_i * Y_{t-i} + W_t + sum_j theta_j * W_{t-j}

with innovations W_t ~ N(0, sigma2), applied after d rounds of
first-differencing. Estimation minimizes the conditional sum of squared
one-step residuals with pre-sample residuals set to zero, so Theta(L) acts as
a unit lower-triangular banded matrix and the residuals are one banded
triangular solve (LAPACK's dtbtrs) of the AR residuals. Pure AR orders are
the OLS fit on the lag design. Orders with MA terms run Levenberg-Marquardt
from the OLS start with the analytic Jacobian, whose columns are the
right-hand sides of one more such solve (Box, Jenkins, Reinsel & Ljung, CSS
estimation); a solution that fails the invertibility or redundancy guard, or
a failed solve, falls back to Nelder-Mead restarted from (i) all zeros and
(ii) the OLS start.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import least_squares, minimize

from .errors import DimensionError, NoConvergedModelError, OptimizerFailure, TooShortError
from .orders import (
    ArimaOrder, _min_root_modulus, _roots_ascending, ar_is_stationary, ma_is_invertible,
)
from .series import TimeSeries, difference_values, inverse_difference_values

_MAX_ITER = 2000
_SIMPLEX_TOL = 1e-8
_LM_TOL = 1e-12
# stands in for a non-finite residual so Levenberg-Marquardt rejects the step
_LM_BLOWUP = 1e100


@dataclass(frozen=True)
class ArimaModel:
    order: ArimaOrder
    alpha: float
    beta: tuple[float, ...]
    theta: tuple[float, ...]
    sigma2: float
    css: float
    n_effective: int
    converged: bool
    ar_stationary: bool
    ma_invertible: bool

    def __post_init__(self) -> None:
        if (len(self.beta), len(self.theta)) != (self.order.p, self.order.q):
            raise DimensionError(f"{len(self.beta)} AR and {len(self.theta)} MA "
                                 f"coefficients do not fit order {self.order}")

    def to_dict(self) -> dict:
        # field order is the JSON key order; tuples encode as lists
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ArimaModel":
        """Refuses coefficients that do not fit the order or are not finite."""
        model = cls(**{
            **data,
            "order": ArimaOrder(**data["order"]),
            "alpha": float(data["alpha"]),
            "beta": tuple(map(float, data["beta"])),
            "theta": tuple(map(float, data["theta"])),
        })
        if not all(map(math.isfinite, (model.alpha, *model.beta, *model.theta))):
            raise ValueError("an ARIMA coefficient is not finite")
        return model


# The admissibility rules below run inside the CSS objective on a handful of
# Python floats, so they use float arithmetic, not numpy calls.


def _abs_sum(values: Sequence[float]) -> float:
    """sum(|v|), left to right: an overflow gives inf, as in np.sum (math.fsum
    raises OverflowError instead)."""
    total = 0.0
    for v in values:
        total += abs(v)
    return total


_UNIT_CIRCLE_TOL = 1e-9
_REDUNDANCY_TOL = 0.2


def _ma_strictly_noninvertible(theta: Sequence[float]) -> bool:
    """True when an MA root lies strictly inside the unit circle.

    Roots on (or within ``_UNIT_CIRCLE_TOL`` of) the circle are tolerated:
    those are legitimate boundary optima (e.g. over-differenced data) and stay
    flagged through ``ma_invertible`` instead of being pushed away.
    """
    if _abs_sum(theta) < 1.0:  # sufficient for all roots outside
        return False
    return _min_root_modulus([1.0, *theta]) < 1.0 - _UNIT_CIRCLE_TOL


def _arma_redundant(beta: Sequence[float], theta: Sequence[float]) -> bool:
    """True when an AR root nearly coincides with an MA root.

    Near-common factors make the parameterization redundant: the pair
    contributes nothing to the transfer function but lets the in-sample
    residual filter chase periodogram dips, deflating the CSS spuriously.
    Distances are relative to the root magnitude (floored at 1).
    """
    # redundancy only bites when both sides carry sizable coefficients
    if _abs_sum(beta) < 0.3 or _abs_sum(theta) < 0.3:
        return False
    ar_roots = _roots_ascending([1.0, *(-b for b in beta)])
    for ma_root in _roots_ascending([1.0, *theta]):
        # a NaN modulus leaves NaN distances, which never fall below the tolerance
        scale = max(1.0, abs(ma_root))
        for ar_root in ar_roots:
            if abs(ar_root - ma_root) / scale < _REDUNDANCY_TOL:
                return True
    return False


def _inadmissible(params: Sequence[float], p: int) -> bool:
    """True in the region both CSS solvers exclude: an MA root strictly inside
    the unit circle, or near-cancelling AR/MA roots. Both shrink the in-sample
    residuals without predictive content, so they would corrupt AIC
    comparisons. ``params`` is (alpha, beta, theta) as Python floats."""
    theta = params[1 + p :]
    return _ma_strictly_noninvertible(theta) or (
        p > 0 and _arma_redundant(params[1 : 1 + p], theta)
    )


def ma_unconditional_moments(
    mu: float, theta: Sequence[float], sigma: float
) -> tuple[float, float]:
    """Long-run mean and variance of an MA(q): (mu, sigma^2 * (1 + sum theta_j^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    return float(mu), float(sigma**2 * (1.0 + np.sum(theta**2)))


def _ols_start(z: np.ndarray, lags: np.ndarray, q: int) -> np.ndarray:
    """OLS fit of z_t on an intercept and its ``_lag_matrix`` columns; MA terms
    start at zero."""
    p = lags.shape[1]
    if p == 0:
        return np.array([float(np.mean(z))] + [0.0] * q)
    design = np.column_stack([np.ones(lags.shape[0]), lags])
    coef, *_ = np.linalg.lstsq(design, z[p:], rcond=None)
    return np.concatenate([coef, np.zeros(q)])


def _lag_matrix(z: np.ndarray, p: int) -> np.ndarray:
    """Column i-1 holds z_{t-i} for t = p .. len(z)-1."""
    n = z.size
    lags = np.empty((n - p, p))
    for i in range(1, p + 1):
        lags[:, i - 1] = z[p - i : n - i]
    return lags


def _ma_inverse(theta: np.ndarray, b: np.ndarray, pinned: int = 0) -> np.ndarray:
    """The e with Theta(L) e = b and zero pre-sample values, Theta(L) = 1 +
    sum_j theta_j L^j, for one right-hand side ``b`` or one per column.

    Theta(L) is a unit lower-triangular banded matrix whose j-th subdiagonal
    holds theta_j, so this is one forward substitution (LAPACK's banded
    triangular solve). Where Theta is not invertible the solution grows
    geometrically, to inf and NaN once it overflows.

    The first ``pinned`` rows of Theta keep only their unit diagonal, so
    e equals b there: a window of a longer solve whose leading rows hold that
    solve's finite e, at least q of them, gives the rows after them as that
    solve does, with the same updates in the same order."""
    # LAPACK's band storage: row j of a column-major (q+1) x n array holds
    # theta_j (row 0, the unit diagonal, is not read). Filled one row at a
    # time: a broadcast fill, or f2py's copy of a broadcast view, steps through
    # q+1 values per column and costs up to twice as much. Entry (j, c) sits
    # in matrix row c + j
    band = np.empty((theta.size + 1, b.shape[0]), order="F")
    for j, coefficient in enumerate([1.0, *theta.tolist()]):
        band[j] = coefficient
    for j in range(1, min(pinned, theta.size + 1)):
        band[j, : pinned - j] = 0.0
    e, info = dtbtrs(band, b, uplo="L", diag="U")
    if info != 0:
        raise RuntimeError(f"dtbtrs rejected its argument {-info}")
    return e


def _css_errors(
    params: np.ndarray, z: np.ndarray, lags: np.ndarray, pinned: Sequence[float] = ()
) -> np.ndarray:
    """CSS residuals at ``params`` (alpha, beta, theta), for t = p .. len(z)-1;
    non-finite where the MA filter blows up. The first residuals are
    ``pinned`` where given (see ``_ma_inverse``). Callers hold
    ``np.errstate(over="ignore", invalid="ignore")``, so a blow-up is a value
    here, not a warning, and the Nelder-Mead objective enters no context per
    call."""
    p = lags.shape[1]
    u = z[p:] - params[0]
    if p:
        u = u - lags @ params[1 : 1 + p]
    if len(pinned):
        u[: len(pinned)] = pinned
    return _ma_inverse(params[1 + p :], u, len(pinned))


def _css_jacobian(
    params: np.ndarray, e: np.ndarray, lags: np.ndarray, q: int
) -> np.ndarray:
    """Jacobian of the CSS residuals ``e`` at ``params`` (alpha, beta, theta).

    With e = (z_t - alpha - sum_i beta_i z_{t-i}) / Theta(L) and zero
    pre-sample residuals, every column is itself filtered by 1/Theta(L):

        de/dalpha = -1/Theta(L),  de/dbeta_i = -z_{t-i}/Theta(L),
        de/dtheta_j = -e_{t-j}/Theta(L)

    so one solve with every column as a right-hand side gives the whole
    matrix.
    """
    p = lags.shape[1]
    cols = np.zeros((e.size, 1 + p + q))
    cols[:, 0] = 1.0
    cols[:, 1 : 1 + p] = lags
    for j in range(1, q + 1):
        cols[j:, p + j] = e[:-j]
    return -_ma_inverse(params[1 + p :], cols)


def _css_least_squares(
    z: np.ndarray, lags: np.ndarray, q: int
) -> tuple[np.ndarray, float] | None:
    """Levenberg-Marquardt on the CSS residuals from the OLS start, with the
    analytic Jacobian.

    Returns (params, css), or None when the solver fails, the optimum is not
    finite, or it is ``_inadmissible``.
    """

    def residuals(params: np.ndarray) -> np.ndarray:
        e = _css_errors(params, z, lags)
        # a blown-up filter is a rejected step, not a NaN inside MINPACK
        return np.where(np.isfinite(e), e, _LM_BLOWUP)

    def jacobian(params: np.ndarray) -> np.ndarray:
        # only called at accepted iterates, whose residuals are finite
        return _css_jacobian(params, residuals(params), lags, q)

    # residuals too large to square make an infinite cost, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = least_squares(
                residuals, _ols_start(z, lags, q), jac=jacobian, method="lm",
                ftol=_LM_TOL, xtol=_LM_TOL, gtol=_LM_TOL,
            )
        except (ValueError, KeyError):
            # ValueError: fewer residuals than parameters, which "lm" refuses;
            # KeyError: MINPACK's "tolerance too small" codes, which scipy does not map
            return None
        params = result.x
        if result.status <= 0 or not np.all(np.isfinite(params)):
            return None
        if _inadmissible(params.tolist(), lags.shape[1]):
            return None
        # every accepted iterate lowers the sum of squares of a finite start,
        # so no stand-in value survives into the solution
        return params, float(np.dot(result.fun, result.fun))


def _css_nelder_mead(
    z: np.ndarray, lags: np.ndarray, q: int
) -> tuple[np.ndarray, float, bool]:
    """Nelder-Mead on the CSS (q > 0) from (i) all zeros and (ii) the OLS AR
    start.

    The objective returns +inf where parameters are not finite or are
    ``_inadmissible``, or where that test cannot tell (a companion matrix that
    overflows), so the simplex searches only admissible parameters.
    """
    p = lags.shape[1]

    def objective(params: np.ndarray) -> float:
        values = params.tolist()
        try:
            if not all(map(math.isfinite, values)) or _inadmissible(values, p):
                return math.inf
        except np.linalg.LinAlgError:
            return math.inf
        e = _css_errors(params, z, lags)
        css = float(np.dot(e, e))
        return css if math.isfinite(css) else math.inf

    starts = [np.zeros(1 + p + q), _ols_start(z, lags, q)]
    best = None
    # a blown-up filter or an overflowing sum of squares is an inf, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in starts:
            result = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={
                    "maxiter": _MAX_ITER,
                    "maxfev": 2 * _MAX_ITER,
                    "xatol": _SIMPLEX_TOL,
                    "fatol": _SIMPLEX_TOL,
                },
            )
            if best is None or result.fun < best.fun:
                best = result
    assert best is not None
    return best.x, float(best.fun), bool(best.success)


def fit_arima(series: TimeSeries, order: ArimaOrder) -> ArimaModel:
    """Fit by minimizing the conditional sum of squares after differencing.

    Pure AR orders (q = 0) are solved exactly by OLS on the lag design. Orders
    with MA terms run Levenberg-Marquardt from the OLS start; its solution is
    rejected when an MA root lies strictly inside the unit circle or an AR
    root nearly cancels an MA root (parameter redundancy), since both regions
    deflate the CSS without predictive content and would corrupt AIC
    comparisons. A rejected or failed solve falls back to a two-start
    Nelder-Mead search that excludes those regions. Boundary roots stay
    reachable and are reported through the stationarity/invertibility flags.

    Nelder-Mead non-convergence within the iteration budget is surfaced on
    the ``converged`` flag; a non-finite optimum raises OptimizerFailure.
    sigma2 is floored at the smallest positive float so it stays > 0 even on
    an exactly-reproduced series.
    """
    p, d, q = order.p, order.d, order.q
    if len(series) <= d:
        raise TooShortError(f"series length {len(series)} does not support d={d}")
    z = difference_values(series.values, d)
    n = z.size
    n_effective = n - p
    if n < p + q + 2:
        raise TooShortError(
            f"need at least {p + q + 2} observations after differencing, got {n}"
        )

    lags = _lag_matrix(z, p)
    try:
        if q == 0:
            params = _ols_start(z, lags, 0)
            with np.errstate(over="ignore", invalid="ignore"):
                e = _css_errors(params, z, lags)
                css, converged = float(np.dot(e, e)), True
        else:
            solved = _css_least_squares(z, lags, q)
            if solved is None:
                params, css, converged = _css_nelder_mead(z, lags, q)
            else:
                (params, css), converged = solved, True
        if not np.isfinite(css) or not np.all(np.isfinite(params)):
            raise OptimizerFailure(f"no finite optimum for order {order}")

        beta = tuple(float(b) for b in params[1 : 1 + p])
        theta = tuple(float(t) for t in params[1 + p :])
        ar_stationary, ma_invertible = ar_is_stationary(beta), ma_is_invertible(theta)
    except np.linalg.LinAlgError as exc:  # a tiny last coefficient overflowed a companion matrix
        raise OptimizerFailure(f"no usable optimum for order {order}: {exc}") from None
    sigma2 = max(css / n_effective, float(np.finfo(np.float64).tiny))
    return ArimaModel(
        order=order,
        alpha=float(params[0]),
        beta=beta,
        theta=theta,
        sigma2=sigma2,
        css=css,
        n_effective=n_effective,
        converged=converged,
        ar_stationary=ar_stationary,
        ma_invertible=ma_invertible,
    )


#: ``lags @ beta`` rounds a row by where it sits among blocks of rows counted
#: from the product's first row: OpenBLAS's Nehalem and Sandybridge kernels
#: take four rows at a time and round the rows after the last whole block
#: another way, and a one-row product takes another path again.
_AR_BLOCK = 4


def _window(remembered: int, q: int) -> tuple[int, int]:
    """``(start, settled)`` for an extended solve over ``remembered`` known
    residuals: it keeps the first ``settled`` of them, the rows before the
    last whole ``_AR_BLOCK`` of their product (the rows after it may have been
    rounded as the last rows of a shorter product, so are solved again), and
    solves a window from ``start`` on whose leading rows, up to ``settled``,
    are pinned to their known values: at least the q that the next row's MA
    terms read. Both are multiples of ``_AR_BLOCK``, so each row of the
    window's product sits where it sits in the full one, and the product
    spans more than one block. ``start`` is negative when too few are known."""
    settled = remembered // _AR_BLOCK * _AR_BLOCK
    return (settled - max(q, 1)) // _AR_BLOCK * _AR_BLOCK, settled


def _extended_css_errors(
    params: np.ndarray, z: np.ndarray, p: int, known: np.ndarray, start: int
) -> np.ndarray:
    """The CSS residuals of ``z`` whose leading ones are ``known``, solving for
    the rows after them only, in a window from row ``start`` on whose rows
    before ``known.size`` are pinned to their known values, so each new row
    gets the updates the full solve gives it, in the same order."""
    window = z[start:]
    solved = _css_errors(params, window, _lag_matrix(window, p), known[start:])
    return np.concatenate([known, solved[known.size - start :]])


@dataclass(eq=False)
class ResidualMemo:
    """The CSS residuals ``e`` of the differenced history ``z`` that ``model``
    last forecast from.

    A history whose differences start with ``z`` (``np.array_equal``), under
    the same model object, keeps those residuals up to ``_window``'s
    ``settled`` and solves for the rows after them alone; any other history,
    model or refit is solved in full. Both give the full solve's residuals,
    bit for bit, where the BLAS rounds each row of ``lags @ beta`` by its
    place in blocks of at most ``_AR_BLOCK`` rows from the first: verified
    with OpenBLAS 0.3.31's SkylakeX, Haswell, Sandybridge and Nehalem kernels
    on one and two threads only; other BLAS builds and CPUs are unverified."""

    model: ArimaModel | None = None
    z: np.ndarray = field(default_factory=lambda: np.empty(0))
    e: np.ndarray = field(default_factory=lambda: np.empty(0))

    def residuals(self, model: ArimaModel, z: np.ndarray) -> np.ndarray:
        p = model.order.p
        start, settled = _window(self.e.size, model.order.q)
        params = np.array([model.alpha, *model.beta, *model.theta])
        extends = (
            self.model is model
            and start >= 0
            and self.z.size <= z.size
            and np.array_equal(z[: self.z.size], self.z)
            and np.all(np.isfinite(self.e[start:settled]))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            if extends:
                e = _extended_css_errors(params, z, p, self.e[:settled], start)
            else:
                e = _css_errors(params, z, _lag_matrix(z, p))
        self.model, self.z, self.e = model, z, e
        return e


def forecast(
    model: ArimaModel, history: TimeSeries, horizon: int, memo: ResidualMemo | None = None
) -> np.ndarray:
    """h-step mean forecasts on the original scale.

    Future innovations enter at their zero mean; unknown future values are
    replaced by their own forecasts; results are re-integrated through the
    differencing seeds taken from the end of the history. The MA terms read
    the history's last q CSS residuals, through ``memo`` where given, so a
    history that extends its last one pays for its new rows; q = 0 solves none.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    p, d, q = model.order.p, model.order.d, model.order.q
    if len(history) <= p + d:
        raise TooShortError(f"history length {len(history)} must exceed p + d = {p + d}")
    if horizon == 0:
        return np.empty(0)

    z = difference_values(history.values, d)
    e = (memo or ResidualMemo()).residuals(model, z) if q else np.empty(0)
    # the last p values and q residuals, zero before the history; each forecast extends both
    recent_z = z[z.size - p :].tolist()
    recent_e = [0.0] * max(q - e.size, 0) + e[max(e.size - q, 0) :].tolist()
    for _ in range(horizon):
        val = model.alpha
        for i, b in enumerate(model.beta, start=1):
            val += b * recent_z[-i]
        for j, th in enumerate(model.theta, start=1):
            val += th * recent_e[-j]
        recent_z.append(val)
        recent_e.append(0.0)

    seeds = history.values[len(history) - d :] if d else ()
    return inverse_difference_values(np.asarray(recent_z[p:]), seeds, d)


def aic(model: ArimaModel) -> float:
    """Gaussian-CSS approximation: n_eff * ln(sigma2) + 2 * (p + q + 1)."""
    k = model.order.p + model.order.q + 1
    return float(model.n_effective * np.log(model.sigma2) + 2 * k)


def select_order(series: TimeSeries, grid: ArimaOrder) -> tuple[ArimaOrder, ArimaModel]:
    """Exhaustive AIC search over every order up to ``grid`` in each of p, d
    and q; ties prefer smaller p+q, then smaller p.

    Non-converged or failed fits are excluded; raises NoConvergedModelError
    when nothing on the grid survives.
    """
    best_key: tuple | None = None
    best: tuple[ArimaOrder, ArimaModel] | None = None
    for d in range(grid.d + 1):
        for p in range(grid.p + 1):
            for q in range(grid.q + 1):
                order = ArimaOrder(p, d, q)
                try:
                    model = fit_arima(series, order)
                except (TooShortError, OptimizerFailure):
                    continue
                if not model.converged:
                    continue
                key = (aic(model), p + q, p, d, q)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (order, model)
    if best is None:
        raise NoConvergedModelError("every grid cell failed to produce a converged fit")
    return best
