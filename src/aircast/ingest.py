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
from operator import itemgetter
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

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


def first_spellings(names: Iterable[str]) -> dict[str, str]:
    """Station key -> the first of ``names`` with that key: the first spelling
    seen names the station. Raises ValueError for a blank name."""
    spellings: dict[str, str] = {}
    for name in names:
        spellings.setdefault(station_key(name), name)
    return spellings


#: One accepted row of :func:`parse_readings`'s table, packed into 21 bytes
#: with no object field. ``station`` is the position of the name's
#: :func:`station_key` in the report's ``stations_seen`` (the order of first
#: acceptance), so one integer comparison selects every spelling of a station;
#: ``pollutant`` is the position of its :class:`Pollutant` in ``list(Pollutant)``.
READING_DTYPE = np.dtype(
    [("at", np.int64), ("value", np.float64), ("station", np.int32), ("pollutant", np.uint8)]
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
    """ISO-8601 with explicit offset -> epoch seconds. Raises ValueError.

    One grammar on every supported Python: 3.11's ``datetime.fromisoformat``,
    with surrounding space ignored, a lowercase ``z`` read as ``Z``, and an
    offset required (``2021-06-01T08:00:00`` is refused)."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    return int(math.floor(dt.timestamp()))


#: Rows read per chunk by :func:`row_chunks`. Each chunk is validated as
#: columns, and only its results outlive it.
CHUNK_ROWS = 1024

#: The canonical stamp ``YYYY-MM-DDTHH:MM:SS+HH:MM``: the positions of its nine
#: two-digit fields (century, year, month, day, hour, minute, second, offset
#: hours, offset minutes), and of its date and time separators.
_FIELD_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24)
_SEPARATORS = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"))


def parse_timestamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`parse_timestamp`: (epoch seconds, ok) per text.

    Stamps of the exact shapes ``YYYY-MM-DDTHH:MM:SS+HH:MM`` (or ``-HH:MM``)
    and ``YYYY-MM-DDTHH:MM:SSZ`` with ASCII digits and in-range fields are
    read as columns; every other text goes to :func:`parse_timestamp`, the
    rule. ``ok`` is False where the rule refuses a text, and its instant is 0.
    Callers pass a chunk of :func:`row_chunks`' rows at a time.
    """
    n = len(texts)
    sizes = np.fromiter(map(len, texts), np.intp, n)
    # a longer text is cut to 25 characters here, and left to the rule by its size
    chars = np.array(texts, dtype="U25").view(np.uint32).reshape(n, 25)
    digits = chars[:, _FIELD_DIGITS].astype(np.int64) - ord("0")
    is_digit = (digits >= 0) & (digits <= 9)
    century, year, month, day, hour, minute, second, off_hour, off_minute = (
        digits[:, 0::2] * 10 + digits[:, 1::2]
    ).T
    year += 100 * century
    sign = chars[:, 19]
    zulu = (sizes == 20) & (sign == ord("Z"))
    offset = (
        (sizes == 25) & ((sign == ord("+")) | (sign == ord("-"))) & (chars[:, 22] == ord(":"))
        & is_digit[:, 14:].all(axis=1) & (off_hour <= 23) & (off_minute <= 59)
    )
    fast = (zulu | offset) & is_digit[:, :14].all(axis=1)
    for pos, separator in _SEPARATORS:
        fast &= chars[:, pos] == ord(separator)
    fast &= (year >= 1) & (month >= 1) & (month <= 12)
    fast &= (hour <= 23) & (minute <= 59) & (second <= 59)
    # the first day of the stamp's month and of the next one, in days since 1970-01-01
    months = np.where(fast, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day, next_first_day = (
        m.astype("datetime64[D]").astype(np.int64) for m in (months, months + 1)
    )
    fast &= (day >= 1) & (day <= next_first_day - first_day)

    utc_offset = np.where(offset, off_hour * 3600 + off_minute * 60, 0)
    utc_offset[sign == ord("-")] *= -1
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    at = np.where(fast, seconds - utc_offset, 0)
    ok = fast
    for i in np.flatnonzero(~fast).tolist():
        try:
            at[i] = parse_timestamp(texts[i])
            ok[i] = True
        except (ValueError, OverflowError, OSError):
            pass
    return at, ok


def parse_pollutant(text: str) -> Pollutant:
    """A pollutant in any spelling the data may use (``pm2.5``, ``PM 2.5``,
    ``PM25``). Raises ValueError for an unknown one."""
    token = text.strip().upper().replace(".", "").replace(" ", "")
    return Pollutant(token)


#: Why a row is rejected, in the order the checks apply: a row gets the first
#: reason that holds for it.
REJECT_REASONS = (
    "malformed csv",
    "missing fields",
    "empty station",
    "bad timestamp",
    "unknown pollutant",
    "unparseable value",
    "non-finite value",
    "negative value",
)


def value_faults(values: np.ndarray) -> dict[str, np.ndarray]:
    """The value rule on parsed values: each reason it refuses a value for,
    with the mask of the values that reason holds for, in the order the
    checks apply."""
    return {"non-finite value": ~np.isfinite(values), "negative value": values < 0}


def row_chunks(reader) -> Iterator[tuple[list[int], list[list[str]]]]:
    """(physical line numbers, rows) of the non-blank rows of ``reader``, up
    to CHUNK_ROWS at a time. A row csv cannot read is an empty list, and
    reading goes on after it."""
    lines: list[int] = []
    rows: list[list[str]] = []
    more = True
    while more:
        try:
            for row in reader:
                if row:  # a blank line is not a data row
                    lines.append(reader.line_num)
                    rows.append(row)
                    if len(rows) == CHUNK_ROWS:
                        break
            else:
                more = False
        except csv.Error:
            lines.append(reader.line_num)
            rows.append([])
        if rows and (len(rows) == CHUNK_ROWS or not more):
            yield lines, rows
            lines, rows = [], []


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _pollutant_index(text: str) -> int:
    """Position of the text's pollutant in ``Pollutant``; -1 for an unknown one."""
    try:
        return list(Pollutant).index(parse_pollutant(text))
    except ValueError:
        return -1


def parse_readings(
    stream: BinaryIO,
    mapping: ColumnMapping | None = None,
) -> tuple[np.recarray, IngestReport]:
    """Parse a CSV stream into a table of validated readings, in file order, plus a quality report.

    Rejected rows (bad timestamp, non-finite or negative value, unknown
    pollutant, missing fields) are recorded with their 1-based physical line
    number (the header is line 1). A UTF-8 byte-order mark is skipped. Raises
    SchemaError if a required column is absent from the header or named in it
    more than once; IO failures propagate as OSError.
    """
    # detached, not closed, when done: the stream is the caller's to close
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", errors="replace", newline="")
    try:
        return _parse_rows(csv.reader(text), mapping or ColumnMapping())
    finally:
        text.detach()


def _parse_rows(reader, mapping: ColumnMapping) -> tuple[np.recarray, IngestReport]:
    """:func:`parse_readings` on a csv reader of the stream's text."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")
    except csv.Error as exc:
        raise SchemaError(f"unreadable header row: {exc}")
    names = [name.strip() for name in header]
    header_index = {name: i for i, name in enumerate(names)}
    missing = [col for col in mapping.required() if col not in header_index]
    if missing:
        raise SchemaError(f"header is missing required columns: {', '.join(missing)}")
    repeated = [col for col in dict.fromkeys(mapping.required()) if names.count(col) > 1]
    if repeated:  # which of the columns holds the data is not known
        raise SchemaError(f"header names required columns twice: {', '.join(repeated)}")
    columns = [header_index[col] for col in mapping.required()]
    width = max(columns) + 1
    # stands in for a short row, which is rejected before its fields are read
    padding = [""] * width

    # One table, filled in place and grown by ndarray.resize, whose realloc of a
    # large block remaps its pages instead of copying them: no second copy of the
    # rows is ever held. refcheck=False, because a tracer (coverage, a debugger)
    # holds a reference the default check refuses; so no view of the table
    # outlives a resize, and each chunk writes through fresh slices.
    readings = np.zeros(0, dtype=READING_DTYPE)
    filled = 0
    codes: dict[str, int] = {}  # station name -> its key's code, in order of first acceptance
    key_codes: dict[str, int] = {}  # station key -> its code, its position in stations_seen
    pollutants: dict[str, int] = {}  # pollutant text -> _pollutant_index(text)
    report = IngestReport()
    for lines, rows in row_chunks(reader):
        sizes = np.fromiter(map(len, rows), np.intp, len(rows))
        short = sizes < width
        if short.any():
            rows = [padding if size < width else row for row, size in zip(rows, sizes.tolist())]
        raw_stations, stamps, raw_pollutants, raw_values = (
            list(map(itemgetter(col), rows)) for col in columns
        )
        stations = np.array(list(map(str.strip, raw_stations)), dtype=object)
        at, stamp_ok = parse_timestamps(stamps)
        for token in set(raw_pollutants) - pollutants.keys():
            pollutants[token] = _pollutant_index(token)
        pollutant = np.fromiter(map(pollutants.__getitem__, raw_pollutants), np.intp, len(rows))
        floats = list(map(_float_or_none, raw_values))
        values = np.array(floats, dtype=np.float64)  # None, a text float() refuses, is nan
        failed = [  # one mask per reason, in REJECT_REASONS order
            sizes == 0,
            short,
            stations == "",
            ~stamp_ok,
            pollutant < 0,
            np.array([v is None for v in floats]),
            *value_faults(values).values(),
        ]
        reason = np.select(failed, np.arange(1, len(failed) + 1))  # 0: accepted
        report.rows_read += len(rows)
        report.rejects.extend(
            (lines[i], REJECT_REASONS[reason[i] - 1]) for i in np.flatnonzero(reason).tolist()
        )
        accepted = reason == 0
        names = stations[accepted].tolist()
        for name in dict.fromkeys(names):
            if name not in codes:  # one station_key call per spelling
                codes[name] = key_codes.setdefault(station_key(name), len(key_codes))
        end = filled + len(names)
        if end > len(readings):
            readings.resize(max(end, int(1.5 * len(readings))), refcheck=False)
        readings["at"][filled:end] = at[accepted]
        readings["value"][filled:end] = values[accepted]
        readings["station"][filled:end] = np.fromiter(
            map(codes.__getitem__, names), np.int32, len(names)
        )
        readings["pollutant"][filled:end] = pollutant[accepted]
        filled = end
    readings.resize(filled, refcheck=False)
    report.rows_accepted = filled
    report.stations_seen = first_spellings(codes)
    return readings.view(np.recarray), report


def parse_readings_path(
    path: str | Path, mapping: ColumnMapping | None = None
) -> tuple[np.recarray, IngestReport]:
    """Open a CSV file (gzip-compressed when the name ends ``.gz``) and parse it."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rb") as handle:
        return parse_readings(handle, mapping)


def build_station_series(
    files: Iterable[tuple[np.ndarray, Collection[str]]],
    station: str,
    pollutant: Pollutant = Pollutant.PM25,
) -> TimeSeries:
    """Per-station raw series: filtered, time-sorted, duplicates mean-collapsed in file order.

    ``files`` are the input files' (table, station keys) pairs in input order,
    each file's keys in its table's code order (its report's ``stations_seen``).
    Raises EmptySeriesError when no row is the station's and the pollutant's.
    """
    key, wanted = station_key(station), list(Pollutant).index(pollutant)
    # each table with the station's code in it: -1, no row's, where its file has none
    codes = [(table, list(keys).index(key) if key in keys else -1) for table, keys in files]

    def picked(column: str) -> np.ndarray:
        # the station's rows of one column, in input order; each table's mask is
        # made again for each column, so none is held from one column to the next
        parts = []
        for table, code in codes:
            mine = table["pollutant"] == wanted
            mine &= table["station"] == code
            parts.append(table[column][mine])
        return np.concatenate(parts)

    at = picked("at")
    if not at.size:
        raise EmptySeriesError(f"no {pollutant.value} readings for station {station!r}")
    # the station's rows in time order: the stable sort keeps each instant's
    # duplicates in file order, and each column is dropped unsorted once sorted
    order = np.argsort(at, kind="stable")
    at = at[order]
    values = picked("value")[order]
    del order
    instants, values, _ = group_means(at, values)
    return TimeSeries(Granularity.RAW, instants, values)
