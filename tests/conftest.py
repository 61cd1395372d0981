from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import aircast
from aircast.series import Granularity, TimeSeries

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

#: The directory this aircast is imported from, for a fresh interpreter's path.
SRC = Path(aircast.__file__).resolve().parent.parent

#: 2021-01-01 00:00 Kigali (UTC+2); every fixture series starts here.
BASE_EPOCH = 1_609_452_000

DAY = 86_400
HOUR = 3_600


def daily_series(values, start=BASE_EPOCH) -> TimeSeries:
    values = np.asarray(values, dtype=np.float64)
    at = start + DAY * np.arange(values.size, dtype=np.int64)
    return TimeSeries(Granularity.DAILY, at, values)


def hourly_series(values, start=BASE_EPOCH) -> TimeSeries:
    values = np.asarray(values, dtype=np.float64)
    at = start + HOUR * np.arange(values.size, dtype=np.int64)
    return TimeSeries(Granularity.HOURLY, at, values)


def strict_json(path: Path):
    """The JSON at ``path``; a NaN or Infinity token raises ValueError."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xA1C)
