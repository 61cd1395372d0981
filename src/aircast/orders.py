"""ARIMA orders, their bounds and the unit-circle rule, importable without
scipy: the CLI checks ``--arima-grid`` against the bounds before any model
layer loads, and ``simulate`` and ``arima`` share one root test. The root
rules run inside ARIMA's CSS objective on a handful of Python floats, so they
use float arithmetic, not numpy calls."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 10:
            raise ValueError("p must be in 0..10")
        if not 0 <= self.d <= 2:
            raise ValueError("d must be in 0..2")
        if not 0 <= self.q <= 10:
            raise ValueError("q must be in 0..10")


def _roots_ascending(coeffs: Sequence[float]) -> list[float | complex]:
    """Roots of a polynomial given ascending coefficients with constant 1.

    Hot path inside the CSS objective: degrees 1-2 use closed forms, higher
    degrees one companion-matrix eigendecomposition. Real roots are floats;
    a complex pair (or a complex eigenvalue set) is complex throughout.
    """
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        radicand = b * b - 4.0 * a * c
        if not radicand < 0.0:  # NaN stays real, as in np.emath.sqrt
            disc = math.sqrt(radicand)
            return [(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)]
        s = math.sqrt(-radicand)
        d = 2.0 * a
        return [complex(-b / d, s / d), complex(-b / d, -s / d)]
    companion = np.zeros((deg, deg))
    companion[0, :] = [-c / coeffs[deg] for c in coeffs[deg - 1 :: -1]]
    companion[1:, :-1] = np.eye(deg - 1)
    return np.linalg.eigvals(companion).tolist()


def _min_root_modulus(ascending: Sequence[float]) -> float:
    """Smallest root modulus of a polynomial given ascending coefficients with
    constant 1; +inf when it has no roots (degree 0), NaN when a modulus is."""
    smallest = math.inf
    for root in _roots_ascending(ascending):
        modulus = abs(root)
        if modulus != modulus:
            return math.nan
        smallest = min(smallest, modulus)
    return smallest


def ar_is_stationary(beta: Sequence[float]) -> bool:
    """Stationarity of 1 - beta_1 x - ... - beta_p x^p."""
    return _min_root_modulus([1.0, *(-float(b) for b in beta)]) > 1.0


def ma_is_invertible(theta: Sequence[float]) -> bool:
    """Invertibility of 1 + theta_1 x + ... + theta_q x^q."""
    return _min_root_modulus([1.0, *(float(t) for t in theta)]) > 1.0
