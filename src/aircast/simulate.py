"""Synthetic station data: the Kigali roster's ARMA parameters and the recursion
``aircast simulate`` draws each station's daily series from. Numpy only (with
the ``errors``, ``orders`` and ``series`` layers), so ``simulate`` loads no scipy."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonStationaryError
from .orders import ar_is_stationary
from .series import Granularity, TimeSeries

#: 2021-01-01 00:00 Kigali time; base instant for synthetic daily series.
SYNTHETIC_BASE_EPOCH = 1_609_452_000

_BURN_IN = 200


@dataclass(frozen=True)
class SimParams:
    alpha: float
    beta: tuple[float, ...]
    theta: tuple[float, ...]
    sigma: float


#: The roster of the Kigali monitoring network, in `simulate`'s default
#: order, with each station's ARMA parameterization (stationary means near
#: 40 µg/m³ so synthetic concentrations stay realistic and positive).
#: Gitega is the designated pure AR(1) station with unit innovation variance.
STATION_SIM_PARAMS: dict[str, SimParams] = {
    "Gitega": SimParams(12.0, (0.7,), (), 1.0),
    "Rusororo": SimParams(18.0, (0.6,), (0.3,), 4.0),
    "Gacuriro": SimParams(13.5, (0.5, 0.2), (), 3.0),
    "Kiyovu": SimParams(44.0, (), (0.5,), 5.0),
    "Rebero": SimParams(8.0, (0.8,), (), 2.0),
    "Mount Kigali": SimParams(38.0, (), (), 6.0),
    "Kimihurura": SimParams(22.0, (0.5,), (), 3.0),
    "Gikondo Mburabuturo": SimParams(13.0, (0.4, 0.3), (-0.2,), 2.0),
    "Gikomero": SimParams(15.0, (0.65,), (), 5.0),
}

#: A station off the roster.
FALLBACK_SIM = SimParams(12.0, (0.7,), (), 3.0)


def simulate_arma(
    alpha: float,
    beta: Sequence[float],
    theta: Sequence[float],
    sigma: float,
    n: int,
    seed: int,
) -> TimeSeries:
    """Generate n observations of the ARMA recursion on synthetic daily instants.

    Deterministic given the seed; a 200-step burn-in from zero initial
    conditions is discarded.
    """
    beta = tuple(float(b) for b in beta)
    theta = tuple(float(t) for t in theta)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n <= len(beta) + len(theta):
        raise ValueError("n must exceed p + q")
    if not ar_is_stationary(beta):
        raise NonStationaryError(f"AR coefficients {beta} have a root on/inside the unit circle")

    rng = np.random.default_rng(seed)
    w = sigma * rng.standard_normal(_BURN_IN + n)
    # the MA part is a convolution, the AR part a recursion from zeros summed
    # from the oldest lag (direct form II transposed): the arithmetic of
    # scipy.signal.lfilter, so a seed gives the series it always gave
    x = alpha + np.convolve([1.0, *theta], w)[: w.size]
    p = len(beta)
    y = [0.0] * p
    for x_t in x.tolist():
        acc = 0.0
        for i in range(p, 0, -1):
            acc += beta[i - 1] * y[-i]
        y.append(acc + x_t)
    at = SYNTHETIC_BASE_EPOCH + 86400 * np.arange(n, dtype=np.int64)
    return TimeSeries(Granularity.DAILY, at, np.array(y[p + _BURN_IN :]))
