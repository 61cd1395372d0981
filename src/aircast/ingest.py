"""CSV ingestion for multi-station sensor exports.

Canonical input schema: a UTF-8 CSV with header columns
``station,timestamp,pollutant,value`` where timestamps are ISO-8601 with an
explicit UTC offset. Alternative headers are handled through a column
mapping. Parsing is total: malformed rows are rejected with a per-row reason
and never abort the file.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import EmptySeriesError, SchemaError
from .series import Granularity, TimeSeries, group_means


class Pollutant(Enum):
    PM25 = "PM25"
    PM10 = "PM10"
    SO2 = "SO2"
    NO2 = "NO2"
    CO = "CO"


def station_key(name: str) -> str:
    """The station rule: two names are one station exactly when their keys
    match, and the key is the stem of the station's file names.

    The name is stripped and case-folded, and every character that is not a
    letter or digit becomes ``_``. Raises ValueError for a blank name.
    """
    key = "".join(c if c.isalnum() else "_" for c in name.strip().casefold())
    if not key:
        raise ValueError("station name must be non-empty")
    return key


#: Deployment roster of the Kigali monitoring network.
STATION_ROSTER: tuple[str, ...] = (
    "Gitega",
    "Rusororo",
    "Gacuriro",
    "Kiyovu",
    "Rebero",
    "Mount Kigali",
    "Kimihurura",
    "Gikondo Mburabuturo",
    "Gikomero",
)


#: One accepted row of :func:`parse_readings`'s table. ``station`` is the name's
#: :func:`station_key`, so one comparison selects every spelling of a station;
#: ``pollutant`` is a :class:`Pollutant`.
READING_DTYPE = np.dtype(
    [("station", object), ("at", np.int64), ("pollutant", object), ("value", np.float64)]
)


@dataclass
class ColumnMapping:
    """Maps the canonical column roles onto the actual header names."""

    station: str = "station"
    timestamp: str = "timestamp"
    pollutant: str = "pollutant"
    value: str = "value"

    def required(self) -> tuple[str, str, str, str]:
        return (self.station, self.timestamp, self.pollutant, self.value)


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_accepted: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)
    #: station key -> the first spelling seen
    stations_seen: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_accepted": self.rows_accepted,
            "rejects": [{"line": line, "reason": reason} for line, reason in self.rejects],
            "stations_seen": sorted(self.stations_seen.values()),
        }


def parse_timestamp(text: str) -> int:
    """ISO-8601 with explicit offset -> epoch seconds. Raises ValueError."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    return int(math.floor(dt.timestamp()))


def parse_pollutant(text: str) -> Pollutant:
    """A pollutant in any spelling the data may use (``pm2.5``, ``PM 2.5``,
    ``PM25``). Raises ValueError for an unknown one."""
    token = text.strip().upper().replace(".", "").replace(" ", "")
    return Pollutant(token)


def parse_readings(
    stream: BinaryIO,
    mapping: ColumnMapping | None = None,
) -> tuple[np.recarray, IngestReport]:
    """Parse a CSV stream into a table of validated readings, in file order, plus a quality report.

    Rejected rows (bad timestamp, non-finite or negative value, unknown
    pollutant, missing fields) are recorded with their 1-based physical line
    number (the header is line 1). Raises SchemaError if a required column is
    absent from the header; IO failures propagate as OSError.
    """
    mapping = mapping or ColumnMapping()
    text = io.TextIOWrapper(stream, encoding="utf-8", errors="replace", newline="")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")
    except csv.Error as exc:
        raise SchemaError(f"unreadable header row: {exc}")
    header_index = {name.strip(): i for i, name in enumerate(header)}
    missing = [col for col in mapping.required() if col not in header_index]
    if missing:
        raise SchemaError(f"header is missing required columns: {', '.join(missing)}")
    columns = [header_index[col] for col in mapping.required()]
    station_col, timestamp_col, pollutant_col, value_col = columns

    rows: list[tuple[str, int, Pollutant, float]] = []
    keys: dict[str, str] = {}  # raw station name -> its key, in order of first appearance
    report = IngestReport()
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            report.rows_read += 1
            report.rejects.append((reader.line_num, "malformed csv"))
            continue
        line_no = reader.line_num
        if not row:
            continue  # blank line, not a data row
        report.rows_read += 1
        if len(row) <= max(columns):
            report.rejects.append((line_no, "missing fields"))
            continue
        station_name = row[station_col].strip()
        if not station_name:
            report.rejects.append((line_no, "empty station"))
            continue
        try:
            at = parse_timestamp(row[timestamp_col])
        except (ValueError, OverflowError, OSError):
            report.rejects.append((line_no, "bad timestamp"))
            continue
        try:
            pollutant = parse_pollutant(row[pollutant_col])
        except ValueError:
            report.rejects.append((line_no, "unknown pollutant"))
            continue
        try:
            value = float(row[value_col])
        except ValueError:
            report.rejects.append((line_no, "unparseable value"))
            continue
        if not math.isfinite(value):
            report.rejects.append((line_no, "non-finite value"))
            continue
        if value < 0:
            report.rejects.append((line_no, "negative value"))
            continue
        key = keys.get(station_name)
        if key is None:  # one key string per spelling, shared by its rows
            key = keys[station_name] = station_key(station_name)
        rows.append((key, at, pollutant, value))
    report.rows_accepted = len(rows)
    # read last spelling first, so the first spelling of each key wins
    report.stations_seen = {key: name for name, key in reversed(keys.items())}
    return np.array(rows, dtype=READING_DTYPE).view(np.recarray), report


def parse_readings_path(
    path: str | Path, mapping: ColumnMapping | None = None
) -> tuple[np.recarray, IngestReport]:
    """Open a CSV file (gzip-compressed when the name ends ``.gz``) and parse it."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rb") as handle:
        return parse_readings(handle, mapping)


def build_station_series(
    readings: np.recarray,
    station: str,
    pollutant: Pollutant = Pollutant.PM25,
) -> TimeSeries:
    """Per-station raw series: filtered, time-sorted, duplicates mean-collapsed in file order."""
    mine = readings[(readings.station == station_key(station)) & (readings.pollutant == pollutant)]
    if not len(mine):
        raise EmptySeriesError(f"no {pollutant.value} readings for station {station!r}")
    instants, values, _ = group_means(mine.at, mine.value)
    return TimeSeries(Granularity.RAW, instants, values)
