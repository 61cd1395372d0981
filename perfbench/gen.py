"""Seeded input generator for the benchmark workloads.

Inputs are built here from the workload seed and never by ``aircast
simulate``, so a change to the program's simulator cannot change a workload.
Each generated CSV is written beside an ``expected.json`` that holds what a
correct ``ingest`` must report: data rows, rejects per reason, accepted rows
and the stations.
"""

from __future__ import annotations

import json
import shutil
import zlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

LOCAL_TZ = timezone(timedelta(hours=2))
#: 2021-01-01 00:00 Kigali local time, as epoch seconds.
START_EPOCH = int(datetime(2021, 1, 1, tzinfo=LOCAL_TZ).timestamp())
DAY = 86_400
QUARTER_HOUR = 900
N_DAYS = 540
#: The CLI's default trailing holdout share.
HOLDOUT_SHARE = 0.2

#: (alpha, beta, theta, sigma) per station. Gitega is the pure AR(1) station
#: with unit innovation variance that the output checks hold ARIMA to.
STATIONS: dict[str, tuple[float, tuple[float, ...], tuple[float, ...], float]] = {
    "Gitega": (12.0, (0.7,), (), 1.0),
    "Rusororo": (18.0, (0.6,), (0.3,), 4.0),
    "Gacuriro": (13.5, (0.5, 0.2), (), 3.0),
    "Kiyovu": (44.0, (), (0.5,), 5.0),
    "Rebero": (8.0, (0.8,), (), 2.0),
    "Mount Kigali": (38.0, (), (), 6.0),
    "Kimihurura": (22.0, (0.5,), (), 3.0),
    "Gikondo Mburabuturo": (13.0, (0.4, 0.3), (-0.2,), 2.0),
    "Gikomero": (15.0, (0.65,), (), 5.0),
}
AR1_STATION = "Gitega"

#: Every reason ``aircast.ingest.parse_readings`` can give, each with the row
#: text that provokes it. ``{s}``/``{t}`` take a station and a timestamp.
REJECT_ROWS = {
    "malformed csv": None,  # built in _reject_row: a field over csv's size limit
    "missing fields": "{s},{t}",
    "empty station": " ,{t},PM25,12.5",
    "bad timestamp": "{s},2021-02-30T25:61:00+02:00,PM25,12.5",
    "unknown pollutant": "{s},{t},O3,12.5",
    "unparseable value": "{s},{t},PM25,n/a",
    "non-finite value": "{s},{t},PM25,nan",
    "negative value": "{s},{t},PM25,-3.25",
}
#: Injected rejects per reason, as a share of the clean rows.
REJECT_SHARE = 0.0005
MALFORMED_ROWS = 3
DUPLICATE_SHARE = 0.002
SHORT_GAPS_PER_STATION = 12  # 2-5 missing hours each: interpolated by ingest
LONG_GAPS_PER_STATION = 2  # 5-8 missing days each: stay open in both series
OTHER_OFFSET_SHARE = 0.1  # rows written in UTC with "Z", and again with "+00:00"


def _rng(seed: int, *labels: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF] + [zlib.crc32(label.encode()) for label in labels])


def _arma(rng: np.random.Generator, alpha, beta, theta, sigma, n: int, holdout: int) -> np.ndarray:
    """ARMA path of length n after a burn-in.

    The innovations of the trailing ``holdout`` points are rescaled to a
    sample RMS of exactly sigma, so a correct one-step model scores close to
    sigma on every seed rather than only on average.
    """
    burn = 200
    e = rng.normal(0.0, sigma, n + burn)
    tail = e[-holdout:]
    e[-holdout:] = tail * (sigma / np.sqrt(np.mean(tail**2)))
    z = np.zeros(n + burn)
    for t in range(n + burn):
        acc = alpha + e[t]
        for i, b in enumerate(beta, start=1):
            if t - i >= 0:
                acc += b * z[t - i]
        for j, th in enumerate(theta, start=1):
            if t - j >= 0:
                acc += th * e[t - j]
        z[t] = acc
    return z[burn:]


def _iso(epoch: np.ndarray, offset_hours: int, suffix: str) -> list[str]:
    """ISO-8601 stamps of the instants as seen from a UTC offset, plus its suffix."""
    wall = (epoch + 3600 * offset_hours).astype("datetime64[s]")
    return [stamp + suffix for stamp in np.datetime_as_string(wall).tolist()]


def _fmt_values(values: np.ndarray) -> list[str]:
    return [f"{v:.4f}" for v in values.tolist()]


class _Expected:
    def __init__(self) -> None:
        self.rows = 0
        self.rows_accepted = 0
        self.rejects = {reason: 0 for reason in REJECT_ROWS}
        self.stations: set[str] = set()

    def to_dict(self, **extra) -> dict:
        return {
            "rows": self.rows,
            "rows_accepted": self.rows_accepted,
            "rejects": {k: v for k, v in self.rejects.items() if v},
            "stations": sorted(self.stations),
            **extra,
        }


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("station,timestamp,pollutant,value\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def daily_network(seed: int, out: Path, n_days: int = N_DAYS) -> dict:
    """9 stations x 540 daily readings at local midnight, one ARMA per station."""
    expected = _Expected()
    lines: list[str] = []
    at = START_EPOCH + DAY * np.arange(n_days, dtype=np.int64)
    stamps = _iso(at, 2, "+02:00")
    holdout = int(round(HOLDOUT_SHARE * n_days))
    for name, (alpha, beta, theta, sigma) in STATIONS.items():
        values = _arma(_rng(seed, "daily", name), alpha, beta, theta, sigma, n_days, holdout)
        for stamp, value in zip(stamps, _fmt_values(values)):
            lines.append(f"{name},{stamp},PM25,{value}")
            expected.rows += 1
            if float(value) < 0:
                expected.rejects["negative value"] += 1
            else:
                expected.rows_accepted += 1
                expected.stations.add(name)
    _write(out / "readings.csv", lines)
    return expected.to_dict(ar1_station=AR1_STATION, ar1_sigma=STATIONS[AR1_STATION][3])


def _quarter_hourly(rng: np.random.Generator, level: float, n_days: int) -> np.ndarray:
    """Positive 15-minute concentrations with diurnal and weekday cycles."""
    n = n_days * 96
    local_minutes = (np.arange(n) % 96) * 15
    hour = local_minutes / 60.0
    diurnal = 0.35 * np.exp(-((hour - 8.0) ** 2) / 3.0) + 0.45 * np.exp(-((hour - 20.0) ** 2) / 4.0)
    weekday = (np.arange(n) // 96 + 4) % 7  # 2021-01-01 was a Friday (Monday = 0)
    weekly = np.where(weekday >= 5, -0.2, 0.0)
    noise = lfilter([1.0], [1.0, -0.97], rng.normal(0.0, 0.08, n))
    return level * np.exp(diurnal + weekly + noise)


def _station_rows(
    rng: np.random.Generator, name: str, n_days: int, messy: bool, expected: _Expected
) -> list[str]:
    values = _quarter_hourly(rng, float(rng.uniform(20.0, 45.0)), n_days)
    at = START_EPOCH + QUARTER_HOUR * np.arange(values.size, dtype=np.int64)
    keep = np.ones(values.size, dtype=bool)
    if messy:
        for _ in range(SHORT_GAPS_PER_STATION):
            start = int(rng.integers(96, values.size - 96))
            keep[start : start + 4 * int(rng.integers(2, 6))] = False
        for _ in range(LONG_GAPS_PER_STATION):
            start = int(rng.integers(96 * 10, values.size - 96 * 10))
            keep[start : start + 96 * int(rng.integers(5, 9))] = False
    at, values = at[keep], values[keep]

    # timestamps: local offset by default, a share written in UTC instead
    style = rng.random(at.size) if messy else np.ones(at.size)
    local, zulu, plus0 = _iso(at, 2, "+02:00"), _iso(at, 0, "Z"), _iso(at, 0, "+00:00")
    stamps = [
        zulu[i] if s < OTHER_OFFSET_SHARE else plus0[i] if s < 2 * OTHER_OFFSET_SHARE else local[i]
        for i, s in enumerate(style.tolist())
    ]
    names = [name, name.upper(), name.lower()] if messy else [name]
    spelled = rng.integers(0, len(names), at.size)
    rows = [
        f"{names[k]},{stamp},PM25,{value}"
        for k, stamp, value in zip(spelled.tolist(), stamps, _fmt_values(values))
    ]
    if messy:
        dup = np.flatnonzero(rng.random(at.size) < DUPLICATE_SHARE)
        extra = [
            f"{name},{local[i]},PM25,{value}"
            for i, value in zip(dup.tolist(), _fmt_values(values[dup] * rng.uniform(0.9, 1.1, dup.size)))
        ]
        rows.extend(extra)
    expected.rows += len(rows)
    expected.rows_accepted += len(rows)
    expected.stations.add(name)
    return rows


def _reject_row(reason: str, station: str, stamp: str) -> str:
    if reason == "malformed csv":
        return f"{station},{stamp},PM25,{'9' * 140_000}"
    return REJECT_ROWS[reason].format(s=station, t=stamp)


def hourly_ingest(seed: int, out: Path, n_days: int = N_DAYS) -> dict:
    """9 stations x 540 days of 15-minute readings with rejects, duplicates and gaps."""
    expected = _Expected()
    rows: list[str] = []
    for name in STATIONS:
        rows.extend(_station_rows(_rng(seed, "hourly", name), name, n_days, True, expected))
    rng = _rng(seed, "rejects")
    stamp = datetime.fromtimestamp(START_EPOCH, tz=LOCAL_TZ).isoformat()
    injected: list[str] = []
    for reason in REJECT_ROWS:
        count = MALFORMED_ROWS if reason == "malformed csv" else int(round(REJECT_SHARE * len(rows)))
        injected.extend(_reject_row(reason, "Kiyovu", stamp) for _ in range(count))
        expected.rejects[reason] += count
        expected.rows += count
    # rejects land at random places among the clean rows
    order = rng.permutation(len(rows) + len(injected))
    merged = rows + injected
    _write(out / "readings.csv", [merged[i] for i in order.tolist()])
    return expected.to_dict()


def hourly_models(seed: int, out: Path, n_days: int = N_DAYS) -> dict:
    """1 station x 540 days of clean 15-minute readings (12,960 hourly means)."""
    expected = _Expected()
    rows = _station_rows(_rng(seed, "models", "Rebero"), "Rebero", n_days, False, expected)
    _write(out / "readings.csv", rows)
    return expected.to_dict()


GENERATORS = {
    "daily-network": daily_network,
    "hourly-ingest": hourly_ingest,
    "hourly-models": hourly_models,
}


def generate(workload: str, seed: int, cache: Path, keep: int = 6) -> tuple[Path, dict]:
    """Inputs for (workload, seed), generated once and then read from the cache.

    Returns the CSV path and the expected counts. Only the ``keep`` most
    recently used entries are retained.
    """
    entry = cache / f"{workload}-{seed}"
    expected_path = entry / "expected.json"
    if not expected_path.exists():
        tmp = cache / f".{workload}-{seed}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        expected = GENERATORS[workload](seed, tmp)
        (tmp / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
        shutil.rmtree(entry, ignore_errors=True)
        tmp.rename(entry)
    expected_path.touch()
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: (p / "expected.json").stat().st_mtime if (p / "expected.json").exists() else 0,
    )
    for stale in entries[:-keep]:
        shutil.rmtree(stale, ignore_errors=True)
    return entry / "readings.csv", json.loads(expected_path.read_text())
