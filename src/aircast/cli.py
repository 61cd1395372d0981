"""Command-line pipeline over multi-station sensor CSV data.

Stages communicate only through files in the output directory, so each stage
can be re-run independently:

    aircast simulate  -> <out>/simulated_readings.csv (synthetic fixture data)
    aircast ingest    -> <out>/series/<station>_{hourly,daily}.csv + report
    aircast trend     -> <out>/trend/* plot-ready statistics per station
    aircast forecast  -> <out>/forecast/* forecast tracks and model JSONs
    aircast evaluate  -> <out>/evaluation/* rolling comparison table

All randomness flows from --seed, fanned out deterministically per station
and model, so identical invocations produce bitwise-identical outputs.
Exit codes: 0 ok, 1 I/O failure, 2 schema/validation failure, 3 no usable
data (ingest kept no row or series, or no station of a later stage could
run), 4 no model succeeded at any station that ran.

Importing this module loads only the numpy layers (``errors``, ``ingest``,
``orders``, ``series``, ``trends``), so ``ingest`` and ``trend`` never load
scipy. ``simulate`` imports the simulator, which is numpy only too, so it
loads no scipy either; ``forecast`` and ``evaluate`` import ``evaluation``
and exactly the model layers ``--models`` names (``ann`` is numpy only,
``gp`` brings scipy.linalg, ``arima`` scipy.optimize too), in the parent
process, before :func:`_run_pool` pins every loaded BLAS and starts its
workers. The pool machinery (``concurrent.futures`` and ``multiprocessing``)
loads only when a pool starts, so ``simulate``, ``ingest`` and a stage that
runs its tasks in the parent never load it.

Every flag is parsed and checked once, by argparse: a rejected flag exits 2
before anything is read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import importlib
import json
import math
import os
import sys
import zlib
from dataclasses import replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import ingest, trends
from .errors import (
    AircastError,
    EmptySeriesError,
    NonFiniteMeanError,
    NonStationaryError,
    SchemaError,
)
from .ingest import (
    ColumnMapping,
    Pollutant,
    build_station_series,
    first_spellings,
    parse_pollutant,
    parse_readings_path,
    parse_timestamp,
    parse_timestamps,
    row_chunks,
    station_key,
    value_faults,
)
from .orders import ArimaOrder
from .series import (
    DEFAULT_MIN_COVERAGE,
    Granularity,
    SplitSpec,
    TimeSeries,
    instants_after,
    interpolate_gaps,
    iso_local,
    resample_mean,
    scaled_where_overflowing,
    split_holdout,
)

if TYPE_CHECKING:
    from .evaluation import EvalReport, Forecaster

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_EMPTY = 3
EXIT_NO_MODEL = 4

DEFAULT_MODELS = ("arima", "ann", "gp")
# CLI-level order-search bound; the library's ArimaAdapter default is wider
# but a 9-station run needs to stay interactive.
DEFAULT_ARIMA_GRID = ArimaOrder(2, 1, 2)
MAX_GAP_HOURLY = 6
MAX_GAP_DAILY = 3
DEFAULT_SIM_DAYS = 540


def derive_seed(master: int, *labels: object) -> int:
    """Deterministic per-station/per-model seed derived from the master seed."""
    h = master & 0xFFFFFFFF
    for label in labels:
        h = zlib.crc32(str(label).lower().encode("utf-8"), h)
    return int(h)


# ---------------------------------------------------------------------------
# File helpers (all outputs: UTF-8, comma, '.' decimals, '\n' line endings)

def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence], fmt: str) -> Path:
    """Write rows as CSV or as a JSON list of row objects; returns the path used.

    The same table in the other format is removed, so a rerun with another
    ``--format`` leaves one current copy. No table stem is the stem of a file
    ``write_json`` writes (summary, evaluation_report, *_model, ingest_report).
    """
    path = path.with_suffix(".json" if fmt == "json" else ".csv")
    path.with_suffix(".csv" if fmt == "json" else ".json").unlink(missing_ok=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        write_json(path, payload)
        return path
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_series_csv(path: Path, series: TimeSeries) -> None:
    """Write a series file, formatting ``ingest.CHUNK_ROWS`` rows at a time."""
    step = ingest.CHUNK_ROWS
    blocks = (
        zip(iso_local(series.at[i : i + step]), series.values[i : i + step].tolist())
        for i in range(0, len(series), step)
    )
    write_table(path, ["timestamp", "value"], chain.from_iterable(blocks), "csv")


def load_series_csv(path: Path, granularity: Granularity) -> TimeSeries | None:
    """Read a series file written by the ingest stage; None if absent/empty.

    The file is read once, a chunk at a time, by ingest's row rule
    (``ingest.row_chunks``), its timestamp rule (ISO-8601 with an explicit
    offset) and its value rule (finite and non-negative). The first row that
    does not read, or rows that do not form a series, raise SchemaError.
    """
    if not path.exists():
        return None
    chunks = []  # each chunk's (instants, values)
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        with contextlib.suppress(csv.Error):
            next(reader, None)  # the header
        for lines, rows in row_chunks(reader):
            chunk = _series_chunk(rows)
            if chunk is None:
                line, error = next((n, e) for n, row in zip(lines, rows) if (e := _row_error(row)))
                raise SchemaError(f"{path}, line {line}: {error}")
            chunks.append(chunk)
    if not chunks:
        return None
    at, values = map(np.concatenate, zip(*chunks))
    try:
        return TimeSeries(granularity, at, values)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _series_chunk(rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray] | None:
    """Series rows as (instants, values) by ingest's array rules; None if a row does not read."""
    if set(map(len, rows)) != {2}:
        return None
    stamps, texts = zip(*rows)
    at, stamp_ok = parse_timestamps(stamps)
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None
    if not stamp_ok.all() or any(refused.any() for refused in value_faults(values).values()):
        return None
    return at, values


def _row_error(row: Sequence[str]) -> str | None:
    """Why one series row does not read, by ingest's scalar rules; None if it reads."""
    if not row:
        return "malformed csv"
    try:
        stamp, text = row
        parse_timestamp(stamp)
        value = float(text)
    except (ValueError, OverflowError, OSError) as exc:
        return str(exc)
    faults = value_faults(np.array([value])).items()
    return next((reason for reason, refused in faults if refused[0]), None)


def series_path(out: Path, station: str, granularity: Granularity) -> Path:
    return out / "series" / f"{station_key(station)}_{granularity.value}.csv"


def model_path(out: Path, station: str, model: str) -> Path:
    """The model JSON ``forecast`` writes and both model stages may load."""
    return out / "forecast" / f"{station_key(station)}_{model}_model.json"


# ---------------------------------------------------------------------------
# Argument plumbing

def _flag_type(
    convert: Callable[[str], object],
    check: Callable[[object], bool] | None = None,
    reason: str = "",
) -> Callable[[str], object]:
    """An argparse ``type``: ``convert`` the text, then refuse a value that
    fails ``check``, saying ``reason``. A ValueError keeps its own reason."""
    def parse(text: str) -> object:
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if check is not None and not check(value):
            raise argparse.ArgumentTypeError(reason)
        return value
    return parse


class _Stations(argparse.Action):
    """``--station``, repeatable: a blank name is an error, and the first
    spelling of each station key wins."""

    def __call__(self, parser, namespace, name, option_string=None) -> None:
        try:
            spellings = first_spellings([*getattr(namespace, self.dest), name])
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, list(spellings.values()))


class _Inputs(argparse.Action):
    """``--input``, repeatable: a file named twice, in any spelling (relative,
    absolute, through a symlink), is read once, at its first place and under
    its first spelling."""

    def __call__(self, parser, namespace, path, option_string=None) -> None:
        paths = getattr(namespace, self.dest)
        if os.path.realpath(path) not in map(os.path.realpath, paths):
            setattr(namespace, self.dest, [*paths, path])


@_flag_type
def _parse_holdout(text: str) -> SplitSpec:
    """An integer is a count of trailing observations, anything else a fraction."""
    try:
        count = int(text)
    except ValueError:
        try:
            fraction = float(text)
        except ValueError:
            raise ValueError(
                f"--holdout must be a fraction in (0, 1) or an integer count, got {text!r}"
            ) from None
        return SplitSpec(fraction=fraction)
    return SplitSpec(count=count)


@_flag_type
def _parse_models(text: str) -> list[str]:
    """Known model names, each once, in the order first given."""
    models = list(dict.fromkeys(m.strip().lower() for m in text.split(",") if m.strip()))
    unknown = [m for m in models if m not in DEFAULT_MODELS]
    if unknown:
        raise ValueError(f"unknown models: {', '.join(unknown)} (choose from {DEFAULT_MODELS})")
    if not models:
        raise ValueError("at least one model required")
    return models


@_flag_type
def _parse_grid(text: str) -> ArimaOrder:
    """The largest order the search tries, as 'p,d,q' within an order's bounds."""
    try:
        p, d, q = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"arima grid must be 'p_max,d_max,q_max' integers, got {text!r}"
        ) from None
    return ArimaOrder(p, d, q)  # raises ValueError outside its bounds


@_flag_type
def _parse_coeffs(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(p) for p in text.split(","))


def _station_names(out: Path, requested: Sequence[str]) -> list[str]:
    """Stations to process: the requested filter, spelled as ingest reported
    each one, or every station the last ingest wrote. An ingest report that
    is not a JSON object whose ``stations_written`` is a list of non-blank
    names raises SchemaError naming the file."""
    report_path = out / "ingest_report.json"
    known: object = []
    if report_path.exists():
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise SchemaError(f"{report_path}: {exc}") from None
        known = report.get("stations_written") if isinstance(report, dict) else None
    if not isinstance(known, list) or not all(isinstance(n, str) and n.strip() for n in known):
        raise SchemaError(f"{report_path}: expected a JSON object whose stations_written "
                          "is a list of non-blank names (re-run ingest to rewrite it)")
    if requested:
        known_by_key = {station_key(name): name for name in known}
        return [known_by_key.get(station_key(name), name) for name in requested]
    return sorted(known)


def _load_model_layers(models: Sequence[str]) -> None:
    """Import ``evaluation`` and the layer of each model in ``models`` (a
    model key is its layer's module name), and no other."""
    for name in ("evaluation", *models):
        importlib.import_module(f".{name}", __package__)


def _build_adapters(args: argparse.Namespace, station: str) -> list[Forecaster]:
    """The forecasters both model stages fit, in ``args.models`` order."""
    from .ann import TrainConfig
    from .evaluation import AnnAdapter, ArimaAdapter, GpAdapter

    adapters: list[Forecaster] = []
    for name in args.models:
        if name == "arima":
            adapters.append(ArimaAdapter(grid=args.arima_grid))
        elif name == "ann":
            adapters.append(
                AnnAdapter(config=TrainConfig(seed=derive_seed(args.seed, station_key(station), "ann")))
            )
        elif name == "gp":
            adapters.append(GpAdapter())
    return adapters


def _default_workers() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: (getter, setter) symbol pairs of OpenBLAS's thread-count API; the scipy
#: wheels rename them and the ILP64 builds add a ``64_`` suffix.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _openblas_thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Found through ``/proc/self/maps``; empty where that file does not exist or
    a loaded BLAS exports none of the known entry points.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file was replaced on disk
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


def _start_worker(modules: Sequence[str]) -> None:
    """Pool initializer: import ``modules``, the ``aircast`` modules the parent
    had loaded, then set every loaded OpenBLAS to one thread.

    A forked worker already has them, pinned. A worker started another way
    (forkserver, the default on Linux from Python 3.14, or spawn) begins from
    a bare interpreter, and scipy's BLAS, which loads with the model layers,
    would otherwise load after the pin and run unpinned.
    """
    for name in modules:
        importlib.import_module(name)
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore.

    Forked workers inherit the setting, so a pool of N processes uses N cores
    rather than N times the BLAS threads, and results do not depend on the
    core count (a threaded BLAS sums in a different order).
    """
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)


def _run_pool(worker: Callable, tasks: Sequence, workers: int) -> list:
    with single_blas_thread():
        if workers <= 1 or len(tasks) <= 1:
            return [worker(task) for task in tasks]
        # concurrent.futures brings multiprocessing: loaded only where a pool starts
        from concurrent.futures import ProcessPoolExecutor

        loaded = sorted(name for name in sys.modules if name.startswith("aircast."))
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_start_worker,
            initargs=(loaded,),
        ) as pool:
            return list(pool.map(worker, tasks))


def _station_outcome(worker: Callable, args: argparse.Namespace, station: str) -> tuple:
    """``worker(args, station)``, or (None, {"*": why}) when it raises
    AircastError: the station cannot run at all."""
    try:
        return worker(args, station)
    except AircastError as exc:
        return None, {"*": str(exc)}


def _run_stations(args: argparse.Namespace, worker: Callable) -> list[tuple] | None:
    """(station, result, errors) of each station to process, in station order,
    from ``worker(args, station) -> (result, errors by model)``; the result is
    None where the worker raised. Every error is printed once, as
    ``<command>: <station>: <why>`` or ``<command>: <station> [<model>]: <why>``.
    None when no station could run."""
    stations = _station_names(args.out, args.station)
    if not stations:
        print(f"{args.command}: no stations to process (run ingest first?)", file=sys.stderr)
        return None
    ran = _run_pool(partial(_station_outcome, worker, args), stations, args.workers)
    outcomes = [(station, *outcome) for station, outcome in zip(stations, ran)]
    for station, _, errors in outcomes:
        for scope, message in errors.items():
            where = station if scope == "*" else f"{station} [{scope}]"
            print(f"{args.command}: {where}: {message}", file=sys.stderr)
    if all(result is None for _, result, _ in outcomes):
        return None
    return outcomes


def _ingested_series(out: Path, station: str, *granularities: Granularity) -> list[TimeSeries | None]:
    """The station's series of each of ``granularities``, None where ingest
    wrote none; EmptySeriesError where it wrote none of them."""
    loaded = [load_series_csv(series_path(out, station, g), g) for g in granularities]
    if all(series is None for series in loaded):
        raise EmptySeriesError("no ingested series found")
    return loaded


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import FALLBACK_SIM, STATION_SIM_PARAMS, simulate_arma

    stations = args.station or list(STATION_SIM_PARAMS)
    overrides = {
        field: getattr(args, field)
        for field in ("alpha", "beta", "theta", "sigma")
        if getattr(args, field) is not None
    }
    roster = {station_key(name): params for name, params in STATION_SIM_PARAMS.items()}
    rows = []
    try:
        for name in stations:
            params = replace(roster.get(station_key(name), FALLBACK_SIM), **overrides)
            series = simulate_arma(
                params.alpha,
                params.beta,
                params.theta,
                params.sigma,
                args.n_days,
                derive_seed(args.seed, station_key(name), "sim"),
            )
            rows.extend(
                [name, stamp, "PM25", v]
                for stamp, v in zip(iso_local(series.at), series.values.tolist())
            )
    except (NonStationaryError, ValueError) as exc:
        print(f"simulate: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    path = args.out / "simulated_readings.csv"
    write_table(path, ["station", "timestamp", "pollutant", "value"], rows, "csv")
    print(f"wrote {path} ({len(rows)} rows, {len(stations)} stations)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest

def _write_station_series(
    args: argparse.Namespace, files: list[tuple[np.recarray, dict[str, str]]], station: str
) -> list[Path]:
    """Write one station's series files; returns their paths. Its series are
    dropped on return, before the next station's are built."""
    gaps = {Granularity.HOURLY: MAX_GAP_HOURLY, Granularity.DAILY: MAX_GAP_DAILY}
    try:
        raw = build_station_series(files, station, args.pollutant)
    except EmptySeriesError:
        print(f"ingest: no data for station {station!r}", file=sys.stderr)
        return []
    except NonFiniteMeanError as exc:  # the station's rows stay accepted
        print(f"ingest: {station}: {exc}", file=sys.stderr)
        return []
    written = []
    for granularity, max_gap in gaps.items():
        try:
            cleaned = interpolate_gaps(resample_mean(raw, granularity, args.min_coverage), max_gap)
        except EmptySeriesError:
            print(f"ingest: {station}: no {granularity.value} bucket met coverage", file=sys.stderr)
            continue
        except NonFiniteMeanError as exc:
            print(f"ingest: {station}: {granularity.value} {exc}", file=sys.stderr)
            continue
        path = series_path(args.out, station, granularity)
        write_series_csv(path, cleaned)
        written.append(path)
    return written


def cmd_ingest(args: argparse.Namespace) -> int:
    mapping = ColumnMapping(
        station=args.station_column,
        timestamp=args.timestamp_column,
        pollutant=args.pollutant_column,
        value=args.value_column,
    )

    files = []  # each file's table and its own stations_seen, in input order
    reports = []
    for path in args.input:
        try:
            table, report = parse_readings_path(path, mapping)
        except (OSError, EOFError, zlib.error) as exc:  # the last two: a damaged .gz
            print(f"ingest: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_IO
        except SchemaError as exc:
            print(f"ingest: {path}: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        files.append((table, report.stations_seen))
        reports.append((path, report))

    rows_read = sum(report.rows_read for _, report in reports)
    rows_accepted = sum(report.rows_accepted for _, report in reports)
    stations_seen = first_spellings(name for _, seen in files for name in seen.values())
    stations = (args.station or sorted(stations_seen.values())) if rows_accepted else []
    written, kept = [], set()  # the stations written, as reported, and their files' names
    for station in stations:
        paths = _write_station_series(args, files, station)
        if paths:
            written.append(stations_seen[station_key(station)])
            kept.update(path.name for path in paths)
    # series/ holds only what this run wrote, so no stage reads an older run's series
    if (args.out / "series").is_dir():
        for path in (args.out / "series").iterdir():
            if path.is_file() and path.name not in kept:
                path.unlink()
    write_json(args.out / "ingest_report.json", {
        "files": {str(path): report.to_dict() for path, report in reports},
        "rows_read": rows_read,
        "rows_accepted": rows_accepted,
        "stations_seen": sorted(stations_seen.values()),
        "stations_written": sorted(written),
    })

    if rows_accepted == 0:
        print("ingest: no rows accepted", file=sys.stderr)
        return EXIT_EMPTY
    if not kept:
        print("ingest: no station series written", file=sys.stderr)
        return EXIT_EMPTY
    print(f"ingest: accepted {rows_accepted}/{rows_read} rows; "
          f"wrote {len(kept)} series files under {args.out / 'series'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# trend

def _trend_station(args: argparse.Namespace, station: str) -> tuple[dict, dict]:
    hourly, daily = _ingested_series(args.out, station, Granularity.HOURLY, Granularity.DAILY)
    result: dict = {"station": station, "files": []}

    tables: list[tuple[str, tuple[list[str], list[list]]]] = []
    if hourly is not None:
        profile = trends.hour_of_day_profile(hourly)
        tables.append(("hour_profile", trends.profile_rows("hour", range(24), profile)))
        result["median_hourly"] = scaled_where_overflowing(
            lambda v: float(np.median(v)), hourly.values
        )
    if daily is not None:
        weekday = trends.day_of_week_profile(daily)
        grid = trends.calendar_daily_means(daily)
        exceedance = trends.who_exceedance(grid, args.who_threshold)
        tables += [
            ("weekday_profile", trends.profile_rows("weekday", trends.WEEKDAY_NAMES, weekday)),
            ("calendar", trends.calendar_rows(grid)),
            ("seasonal", trends.seasonal_rows(trends.seasonal_means(daily))),
            ("who_exceedance", trends.exceedance_rows(exceedance)),
        ]
        result["exceedance_fraction"] = exceedance.fraction
        present = [i for i, s in enumerate(weekday) if s is not None]
        if present:
            peak = max(present, key=lambda i: weekday[i].median)
            result["peak_weekday"] = trends.WEEKDAY_NAMES[peak]

    key = station_key(station)
    for name, (header, rows) in tables:
        path = write_table(args.out / "trend" / f"{key}_{name}", header, rows, args.format)
        result["files"].append(str(path))
    return result, {}


def cmd_trend(args: argparse.Namespace) -> int:
    outcomes = _run_stations(args, _trend_station)
    if outcomes is None:
        return EXIT_EMPTY

    processed = [result for _, result, _ in outcomes if result is not None]
    ranking = sorted(
        (r for r in processed if "median_hourly" in r),
        key=lambda r: -r["median_hourly"],
    )
    summary = {
        "station_ranking_by_median_hourly": [
            {"station": r["station"], "median_hourly": r["median_hourly"]} for r in ranking
        ],
        "who_threshold": args.who_threshold,
        "stations": {
            r["station"]: {
                "exceedance_fraction": r.get("exceedance_fraction"),
                "peak_weekday": r.get("peak_weekday"),
                "files": r["files"],
            }
            for r in processed
        },
    }
    write_json(args.out / "trend" / "summary.json", summary)
    print(f"trend: wrote analyses for {len(processed)} stations under {args.out / 'trend'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast

def _forecast_station(args: argparse.Namespace, station: str) -> tuple[list[str], dict]:
    """(the models that forecast, errors by model). The station's earlier
    forecast table goes first, so none stays to pass for this run's."""
    from .evaluation import fit_or_load

    forecast_path = args.out / "forecast" / f"{station_key(station)}_forecast"
    for suffix in (".csv", ".json"):
        forecast_path.with_suffix(suffix).unlink(missing_ok=True)
    granularity = Granularity(args.granularity)
    (series,) = _ingested_series(args.out, station, granularity)
    train, _ = split_holdout(series, args.holdout)
    future_at = instants_after(train, args.horizon).tolist()
    actual_by_at = dict(zip(series.at.tolist(), series.values.tolist()))

    tracks: dict[str, np.ndarray] = {}
    variances: dict[str, np.ndarray] = {}
    errors: dict[str, str] = {}
    for adapter in _build_adapters(args, station):
        path = model_path(args.out, station, adapter.name)
        try:
            key = fit_or_load(adapter, train, path)
            tracks[adapter.name], variance = adapter.forecast(train, future_at)
            if variance is not None:
                variances[f"{adapter.name}_variance"] = variance
            write_json(path, {**adapter.to_dict(), "fit_key": key})
        except AircastError as exc:
            errors[adapter.name] = str(exc)
    if not tracks:
        return [], errors

    columns = {**tracks, **variances}
    stamps = iso_local(future_at)
    if granularity is Granularity.DAILY:
        stamps = [stamp[:10] for stamp in stamps]  # the local date
    actual = [actual_by_at.get(at, "") for at in future_at]
    rows = zip(stamps, actual, *(column.tolist() for column in columns.values()))
    write_table(forecast_path, ["date", "actual", *columns], rows, args.format)
    return list(tracks), errors


def cmd_forecast(args: argparse.Namespace) -> int:
    _load_model_layers(args.models)  # here, before _run_pool pins BLAS and starts workers
    outcomes = _run_stations(args, _forecast_station)
    if outcomes is None:
        return EXIT_EMPTY

    forecast = [models for _, models, _ in outcomes if models]
    if not forecast:
        print("forecast: no model produced a forecast", file=sys.stderr)
        return EXIT_NO_MODEL
    print(f"forecast: wrote forecasts for {len(forecast)} stations under {args.out / 'forecast'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate

def compare_models(*args, **kwargs) -> EvalReport:
    """:func:`evaluation.compare_models`, under a name in this module's globals.

    ``_evaluate_station`` calls it here, so a wrapper set on
    ``cli.compare_models`` (perfbench's span) sees every call, while importing
    ``cli`` still loads no model layer.
    """
    from . import evaluation

    return evaluation.compare_models(*args, **kwargs)


def _evaluate_station(args: argparse.Namespace, station: str) -> tuple[EvalReport, dict]:
    """(the station's report, its errors by model)."""
    granularity = Granularity(args.granularity)
    (series,) = _ingested_series(args.out, station, granularity)
    adapters = _build_adapters(args, station)
    paths = {adapter.name: model_path(args.out, station, adapter.name) for adapter in adapters}
    report = compare_models(series, args.holdout, adapters, station=station, model_paths=paths)
    return report, report.errors


def cmd_evaluate(args: argparse.Namespace) -> int:
    _load_model_layers(args.models)  # here, before _run_pool pins BLAS and starts workers
    from .evaluation import EvalReport, comparison_table

    eval_dir = args.out / "evaluation"
    # an earlier run's comparison goes first, so none stays to pass for this run's
    for name in ("comparison.csv", "comparison.json", "evaluation_report.json"):
        (eval_dir / name).unlink(missing_ok=True)
    outcomes = _run_stations(args, _evaluate_station)
    if outcomes is None:
        return EXIT_EMPTY

    reports = [
        EvalReport(station=station, split="", errors=errors) if report is None else report
        for station, report, errors in outcomes
    ]
    if all(not report.models for report in reports):
        print("evaluate: no model succeeded on any station", file=sys.stderr)
        return EXIT_NO_MODEL

    header, rows = comparison_table(reports, args.models)
    write_table(eval_dir / "comparison", header, rows, args.format)
    write_json(
        eval_dir / "evaluation_report.json",
        {
            "seed": args.seed,
            "models": args.models,
            "holdout": str(args.holdout.count or args.holdout.fraction),
            "protocol": "rolling one-step, parameters frozen after one fit on train",
            "stations": [report.to_dict() for report in reports],
        },
    )
    print(f"evaluate: wrote comparison for {len(reports)} stations under {eval_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        type=Path,
        default=os.environ.get("AIRCAST_OUT", "aircast_out"),
        help="output directory (default: $AIRCAST_OUT or ./aircast_out)",
    )
    parser.add_argument(
        "--station",
        action=_Stations,
        default=[],
        help="station filter; repeatable (default: all stations)",
    )


def _add_station_stage_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the stages that run per station: trend, forecast, evaluate."""
    parser.add_argument("--workers", default=_default_workers(),
                        type=_flag_type(int, lambda n: n >= 1, "workers must be >= 1"),
                        help="station worker pool size (default: %(default)s, the CPUs "
                             "this process may run on)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format for data files")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    _add_station_stage_flags(parser)
    parser.add_argument("--models", type=_parse_models, default=",".join(DEFAULT_MODELS),
                        help="comma-separated subset of arima,ann,gp")
    parser.add_argument("--holdout", type=_parse_holdout, default="0.2",
                        help="trailing holdout: fraction in (0,1) or integer count")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--granularity", choices=["hourly", "daily"], default="daily",
                        help="which cleaned series to model")
    parser.add_argument("--arima-grid", type=_parse_grid, default=DEFAULT_ARIMA_GRID,
                        help="ARIMA order-selection bounds 'p_max,d_max,q_max'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircast",
        description="Trend analysis and forecasting for PM2.5 sensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic multi-station CSV fixture")
    _add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-days", type=int, default=DEFAULT_SIM_DAYS)
    p_sim.add_argument("--alpha", type=float, default=None, help="override intercept for all stations")
    p_sim.add_argument("--beta", type=_parse_coeffs, default=None,
                       help="override AR coefficients, comma-separated")
    p_sim.add_argument("--theta", type=_parse_coeffs, default=None,
                       help="override MA coefficients, comma-separated")
    p_sim.add_argument("--sigma", type=float, default=None, help="override innovation std dev")
    p_sim.set_defaults(func=cmd_simulate)

    p_ing = sub.add_parser("ingest", help="parse sensor CSVs into cleaned per-station series")
    _add_common(p_ing)
    p_ing.add_argument("--input", action=_Inputs, type=Path, default=[], required=True,
                       help="input CSV path (.gz accepted); repeatable")
    p_ing.add_argument("--pollutant", default="PM25", type=_flag_type(parse_pollutant),
                       metavar="{" + ",".join(p.value for p in Pollutant) + "}",
                       help="pollutant to write series for, in any spelling the input may "
                            "use (pm2.5 and 'PM 2.5' are PM25)")
    p_ing.add_argument("--min-coverage", default=DEFAULT_MIN_COVERAGE,
                       type=_flag_type(float, lambda c: 0.0 <= c <= 1.0, "must lie in [0, 1]"),
                       help="minimum bucket coverage fraction for resampled means")
    p_ing.add_argument("--station-column", default="station")
    p_ing.add_argument("--timestamp-column", default="timestamp")
    p_ing.add_argument("--pollutant-column", default="pollutant")
    p_ing.add_argument("--value-column", default="value")
    p_ing.set_defaults(func=cmd_ingest)

    p_trend = sub.add_parser("trend", help="descriptive statistics per station")
    _add_common(p_trend)
    p_trend.add_argument("--who-threshold", default=trends.WHO_DAILY_GUIDELINE,
                         type=_flag_type(float, math.isfinite, "must be finite"),
                         help="daily-mean exceedance threshold, µg/m³")
    _add_station_stage_flags(p_trend)
    p_trend.set_defaults(func=cmd_trend)

    p_fc = sub.add_parser("forecast", help="fit models on the train split and forecast ahead")
    _add_common(p_fc)
    _add_model_flags(p_fc)
    p_fc.add_argument("--horizon", type=_flag_type(int, lambda n: n >= 1, "horizon must be >= 1"),
                      default=14, help="steps to forecast")
    p_fc.set_defaults(func=cmd_forecast)

    p_eval = sub.add_parser("evaluate", help="rolling one-step comparison on the holdout")
    _add_common(p_eval)
    _add_model_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has said why (or printed the help)
        return exc.code
    try:
        return args.func(args)
    except OSError as exc:
        print(f"aircast: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:  # a damaged ingest report, before any stage output
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
