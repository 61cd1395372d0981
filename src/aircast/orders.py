"""ARIMA orders and their bounds, importable without scipy: the CLI checks
``--arima-grid`` against them before any model layer loads."""

from dataclasses import dataclass


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
