from __future__ import annotations

import argparse
import collections
import csv
import gzip
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from aircast import ann, arima, gp, ingest, trends
from aircast.cli import (
    _openblas_thread_controls,
    build_parser,
    load_series_csv,
    main,
    single_blas_thread,
    write_series_csv,
)
from aircast.errors import GranularityError, SchemaError
from aircast.evaluation import AnnAdapter, ArimaAdapter, GpAdapter
from aircast.series import LOCAL_TZ, Granularity, TimeSeries
from aircast.trends import Season

from conftest import BASE_EPOCH, SRC, strict_json
from test_trends import SEASON_OF_MONTH, quantile_oracle

FAST_EVAL = ["--arima-grid", "1,0,1", "--workers", "1"]
STAGE_DIRS = {"trend": "trend", "forecast": "forecast", "evaluate": "evaluation"}


def blas_thread_counts() -> list[int]:
    """Threads each loaded OpenBLAS will use, in load-path order."""
    return [get() for get, _ in _openblas_thread_controls()]


def read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def fresh_out(pipeline_out: Path, dest: Path) -> Path:
    """A copy of the ingested fixture without any model-stage output."""
    shutil.copytree(pipeline_out / "series", dest / "series")
    shutil.copy(pipeline_out / "ingest_report.json", dest)
    return dest


def assert_refused(capsys, out: Path, command: str, *flags: str, reason: str) -> str:
    """``command`` with ``flags`` exits 2 with argparse's usage line and an
    error ending in ``reason``, and nothing exists under ``out``; returns stderr."""
    assert main([command, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: aircast {command} ")
    assert err.endswith(f"aircast {command}: error: {reason}\n")
    assert not out.exists()
    return err


def refused(*cases: tuple[str, str]) -> list:
    """(bad flag, argparse's reason) cases, each with the flag as its test id."""
    return [pytest.param(flag, reason, id=flag) for flag, reason in cases]


def stage_files(folder: Path) -> dict[Path, bytes]:
    return {
        path.relative_to(folder): path.read_bytes()
        for path in sorted(folder.rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """simulate + ingest once for the read-only downstream stage tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert main([
        "simulate", "--out", str(out), "--seed", "7", "--n-days", "160",
        "--station", "Gitega", "--station", "Rebero",
    ]) == 0
    assert main([
        "ingest", "--out", str(out), "--input", str(out / "simulated_readings.csv"),
    ]) == 0
    return out


class TestSimulate:
    def test_default_roster(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--n-days", "30"]) == 0
        header, rows = read_csv(tmp_path / "simulated_readings.csv")
        assert header == ["station", "timestamp", "pollutant", "value"]
        stations = {row[0] for row in rows}
        assert stations == {
            "Gitega", "Rusororo", "Gacuriro", "Kiyovu", "Rebero",
            "Mount Kigali", "Kimihurura", "Gikondo Mburabuturo", "Gikomero",
        }
        assert len(rows) == 9 * 30

    def test_same_seed_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--out", str(out), "--seed", "3", "--n-days", "25"]) == 0
        assert (out_a / "simulated_readings.csv").read_bytes() == (
            out_b / "simulated_readings.csv"
        ).read_bytes()

    @pytest.mark.parametrize("station, flag", [
        ("Gitega", "--alpha=12"), ("Gitega", "--beta=0.7"),
        ("Kiyovu", "--theta=0.5"), ("Rebero", "--sigma=2.0"),
    ])
    def test_override_replaces_only_the_field_it_names(self, tmp_path, station, flag):
        """Naming one of a roster station's own parameters leaves its series as
        it is: the other fields stay the station's, not the off-roster model's."""
        for name, flags in (("own", []), ("named", [flag])):
            assert main(["simulate", "--out", str(tmp_path / name), "--n-days", "120",
                         "--station", station, *flags]) == 0
        assert (tmp_path / "named" / "simulated_readings.csv").read_bytes() == (
            tmp_path / "own" / "simulated_readings.csv"
        ).read_bytes()

    def test_nonstationary_override_rejected(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--beta", "1.1"]) == 2

    @pytest.mark.parametrize("flag, reason", refused(
        ("--beta=0.5,x", "argument --beta: could not convert string to float: 'x'"),
        ("--theta=abc", "argument --theta: could not convert string to float: 'abc'"),
    ))
    def test_unparseable_override_rejected(self, tmp_path, capsys, flag, reason):
        assert_refused(capsys, tmp_path / "out", "simulate", flag, reason=reason)

    def test_roster_parameters_found_by_station_key(self, tmp_path):
        values = {}
        for name in ("Gitega", "gitega"):
            assert main(["simulate", "--out", str(tmp_path / name), "--n-days", "80",
                         "--station", name]) == 0
            _, rows = read_csv(tmp_path / name / "simulated_readings.csv")
            assert {row[0] for row in rows} == {name}
            values[name] = [row[1:] for row in rows]
        assert values["gitega"] == values["Gitega"]

    def test_seed_follows_the_station_key(self, tmp_path):
        """Two spellings of one station get one seed, not only one model."""
        values = {}
        for name in ("Mount Kigali", "Mount-Kigali", "MOUNT_KIGALI"):
            assert main(["simulate", "--out", str(tmp_path / name), "--n-days", "40",
                         "--station", name]) == 0
            _, rows = read_csv(tmp_path / name / "simulated_readings.csv")
            values[name] = [row[1:] for row in rows]
        assert values["Mount-Kigali"] == values["Mount Kigali"] == values["MOUNT_KIGALI"]

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AIRCAST_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--n-days", "20", "--station", "Gitega"]) == 0
        assert (tmp_path / "envout" / "simulated_readings.csv").exists()


def hourly_rows(station: str = "Gitega", hours: range = range(24), level: int = 40) -> str:
    """Two weeks of hourly PM25 input rows from June 1st, 2021, valued level + hour % 5."""
    return "".join(
        f"{station},2021-06-{d:02d}T{h:02d}:00:00+02:00,PM25,{level + h % 5}.0\n"
        for d in range(1, 15)
        for h in hours
    )


class TestIngest:
    HEADER = "station,timestamp,pollutant,value\n"
    CSV = HEADER + hourly_rows()

    def test_full_ingest(self, tmp_path):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == 0
        assert (out / "series" / "gitega_hourly.csv").exists()
        assert (out / "series" / "gitega_daily.csv").exists()
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rows_accepted"] == 14 * 24
        assert report["stations_seen"] == ["Gitega"]
        _, daily_rows = read_csv(out / "series" / "gitega_daily.csv")
        assert len(daily_rows) == 14

    def test_peak_memory_per_accepted_row(self, tmp_path):
        # 3 stations x 33,334 quarter-hours, as one file and split across two.
        # The table is 21 bytes a row, and ingest peaks at about 40 bytes per
        # accepted row while it groups a station's rows; the bound is that plus
        # 10% (49 for two files when their tables were joined into one copy,
        # 55 when np.unique grouped a station's rows, 66 when the table held
        # each row's station key and pollutant as objects in 32 bytes, 102 when
        # it also held the table twice)
        stamps = np.datetime_as_string(
            np.datetime64("2021-01-01T00:00:00") + np.arange(33_334) * np.timedelta64(900, "s")
        ).tolist()
        lines = [
            f"{station},{stamp}+02:00,PM25,{40 + i % 7}.5\n"
            for station in ("Gitega", "Kiyovu", "Rebero")
            for i, stamp in enumerate(stamps)
        ]
        half = len(lines) // 2
        for name, parts in [("one", [lines]), ("two", [lines[:half], lines[half:]])]:
            inputs = []
            for i, part in enumerate(parts):
                src = tmp_path / f"{name}{i}.csv"
                src.write_text(self.HEADER + "".join(part), encoding="utf-8")
                inputs += ["--input", str(src)]
            out = tmp_path / name
            tracemalloc.start()
            try:
                assert main(["ingest", "--out", str(out), *inputs]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = json.loads((out / "ingest_report.json").read_text())["rows_accepted"]
            assert rows == 3 * len(stamps)
            per_row = peak / rows
            assert per_row <= 44, f"{name}: ingest peaked at {per_row:.1f} bytes per accepted row"

    def test_gzip_input(self, tmp_path):
        src = tmp_path / "readings.csv.gz"
        src.write_bytes(gzip.compress(self.CSV.encode("utf-8")))
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == 0
        assert (out / "series" / "gitega_hourly.csv").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path), "--input", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_io_error(self, tmp_path, capsys, damage):
        packed = gzip.compress(self.CSV.encode("utf-8"))
        if damage == "truncated":
            packed = packed[: len(packed) // 2]
        else:  # deflate block type 3 does not exist
            packed = packed[:10] + bytes([0x07]) + packed[11:]
        src = tmp_path / "readings.csv.gz"
        src.write_bytes(packed)
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == 1
        assert capsys.readouterr().err.startswith(f"ingest: cannot read {src}: ")
        assert not out.exists()

    def test_header_only_is_empty(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("station,timestamp,pollutant,value\n", encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path), "--input", str(src)]) == 3

    def test_bad_header_is_schema_error(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path), "--input", str(src)]) == 2

    def test_a_required_column_named_twice_is_schema_error(self, tmp_path, capsys):
        src = tmp_path / "twice.csv"
        src.write_text("station,timestamp,pollutant,value,value\n"
                       "G,2021-06-01T08:00:00+02:00,PM25,1,999\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"ingest: {src}: header names required columns twice: value\n"
        )
        assert not out.exists()

    def test_two_inputs_merge_station_spellings(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(self.CSV, encoding="utf-8")
        second.write_text(
            "station,timestamp,pollutant,value\n"
            "GITEGA,2021-06-01T05:00:00+02:00,PM25,50.0\n"
            "GITEGA,not a time,PM25,50.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(first),
                     "--input", str(second)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stations_seen"] == ["Gitega"]
        files = report["files"].values()
        assert len(files) == 2
        for key in ("rows_read", "rows_accepted"):
            assert report[key] == sum(f[key] for f in files)
        assert sorted(p.name for p in (out / "series").iterdir()) == [
            "gitega_daily.csv", "gitega_hourly.csv",
        ]
        _, hourly = read_csv(out / "series" / "gitega_hourly.csv")
        # the first file holds 40.0 at 05:00 on June 1st
        assert ["2021-06-01T05:00:00+02:00", "45.0"] in hourly

    def test_an_input_named_twice_is_read_once(self, tmp_path):
        src = tmp_path / "a.csv"
        src.write_text(self.CSV, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src),
                     "--input", str(tmp_path / "." / "a.csv")]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert list(report["files"]) == [str(src)]
        assert report["rows_read"] == sum(f["rows_read"] for f in report["files"].values())
        assert report["rows_read"] == len(self.CSV.splitlines()) - 1

    @pytest.mark.parametrize("spelling", ["absolute", "symlink"])
    def test_an_input_spelled_two_ways_is_read_once(self, tmp_path, monkeypatch, spelling):
        """One file named relatively and then absolutely, or through a symlink,
        is read once and reported under its first spelling."""
        (tmp_path / "a.csv").write_text(self.CSV, encoding="utf-8")
        if spelling == "symlink":
            (tmp_path / "link.csv").symlink_to(tmp_path / "a.csv")
            second = "link.csv"
        else:
            second = str(tmp_path / "a.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--out", "out", "--input", "a.csv", "--input", second]) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert list(report["files"]) == ["a.csv"]
        assert report["rows_read"] == len(self.CSV.splitlines()) - 1

    def test_two_inputs_in_other_station_orders_write_the_one_file_series(self, tmp_path):
        # each file numbers its stations in its own order of first acceptance,
        # and a station's rows are picked from each table by that file's code
        first = "".join(hourly_rows(s, range(12), level) for s, level in
                        [("Gitega", 40), ("Kiyovu", 60), ("Rebero", 80)])
        second = "".join([
            hourly_rows("Rebero", range(12, 24), 80),
            "Rebero,2021-06-03T13:00:00+02:00,PM10,999.0\n",
            hourly_rows("KIYOVU", range(12, 24), 60),
            hourly_rows("gitega", range(12, 24), 40),
        ])
        paths = {}
        for name, text in [("a", first), ("b", second), ("both", first + second)]:
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(self.HEADER + text, encoding="utf-8")
        two, one = tmp_path / "two", tmp_path / "one"
        assert main(["ingest", "--out", str(two), "--input", str(paths["a"]),
                     "--input", str(paths["b"])]) == 0
        assert main(["ingest", "--out", str(one), "--input", str(paths["both"])]) == 0
        names = sorted(path.name for path in (one / "series").iterdir())
        assert len(names) == 6
        assert sorted(path.name for path in (two / "series").iterdir()) == names
        for name in names:
            assert (two / "series" / name).read_bytes() == (one / "series" / name).read_bytes()
        reports = [json.loads((out / "ingest_report.json").read_text()) for out in (one, two)]
        for key in ("rows_read", "rows_accepted", "stations_seen"):
            assert reports[0][key] == reports[1][key], key

    def test_column_flags_read_a_renamed_header_as_the_canonical_one(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--n-days", "30"]) == 0
        canonical = tmp_path / "simulated_readings.csv"
        header, body = canonical.read_text(encoding="utf-8").split("\n", 1)
        assert header == self.HEADER.strip()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("site,time,species,reading\n" + body, encoding="utf-8")
        assert main(["ingest", "--out", str(tmp_path / "canonical"), "--input", str(canonical)]) == 0
        assert main(["ingest", "--out", str(tmp_path / "renamed"), "--input", str(renamed),
                     "--station-column", "site", "--timestamp-column", "time",
                     "--pollutant-column", "species", "--value-column", "reading"]) == 0
        series = stage_files(tmp_path / "canonical" / "series")
        assert len(series) == 18
        assert stage_files(tmp_path / "renamed" / "series") == series

    def test_station_spellings_that_differ_in_punctuation_are_one_station(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(
            self.HEADER + hourly_rows("Mount Kigali") + hourly_rows("Mount-Kigali", level=90),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == 0
        assert "wrote 2 series files" in capsys.readouterr().out
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stations_seen"] == ["Mount Kigali"]
        assert sorted(p.name for p in (out / "series").iterdir()) == [
            "mount_kigali_daily.csv", "mount_kigali_hourly.csv",
        ]
        _, hourly = read_csv(out / "series" / "mount_kigali_hourly.csv")
        # 40.0 from one spelling and 90.0 from the other at 00:00 on June 1st
        assert hourly[0] == ["2021-06-01T00:00:00+02:00", "65.0"]

    def test_reingest_removes_the_series_it_no_longer_writes(self, tmp_path, capsys):
        full, half = tmp_path / "full.csv", tmp_path / "half.csv"
        full.write_text(self.CSV, encoding="utf-8")
        # hours 0-11 only: no day meets the daily coverage
        half.write_text(self.HEADER + hourly_rows(hours=range(12)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(full)]) == 0
        assert (out / "series" / "gitega_daily.csv").exists()
        assert main(["ingest", "--out", str(out), "--input", str(half)]) == 0
        captured = capsys.readouterr()
        assert "Gitega: no daily bucket met coverage" in captured.err
        assert "wrote 1 series files" in captured.out
        assert sorted(p.name for p in (out / "series").iterdir()) == ["gitega_hourly.csv"]
        _, hourly = read_csv(out / "series" / "gitega_hourly.csv")
        assert {row[0][11:13] for row in hourly} == {f"{h:02d}" for h in range(12)}

    def test_reingest_of_one_station_leaves_no_other_station_series(self, tmp_path):
        """Kiyovu's series from an earlier ingest go when the next ingest writes
        Gitega alone, so trend does not rank Kiyovu at the old readings' median."""
        old, new = tmp_path / "c.csv", tmp_path / "a.csv"
        old.write_text(self.HEADER + hourly_rows("Kiyovu", level=7), encoding="utf-8")
        new.write_text(self.HEADER + hourly_rows("Gitega") + hourly_rows("Kiyovu", level=60),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(old)]) == 0
        assert main(["ingest", "--out", str(out), "--input", str(new), "--station", "Gitega"]) == 0
        assert sorted(p.name for p in (out / "series").iterdir()) == [
            "gitega_daily.csv", "gitega_hourly.csv",
        ]
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stations_seen"] == ["Gitega", "Kiyovu"]
        assert report["stations_written"] == ["Gitega"]
        assert main(["trend", "--out", str(out), "--workers", "1"]) == 0
        summary = json.loads((out / "trend" / "summary.json").read_text())
        assert [entry["station"] for entry in summary["station_ranking_by_median_hourly"]] == [
            "Gitega",
        ]

    @pytest.mark.parametrize("rows", [
        pytest.param("Gitega,2021-06-01T10:00:00+02:00,PM25,-1.0\n", id="no-row-accepted"),
        pytest.param("".join(f"Gitega,2021-06-01T10:00:00+02:00,PM25,{value}\n"
                             for value in ("20", "1e308", "1e308")), id="no-series-written"),
    ])
    def test_reingest_that_exits_3_leaves_no_series(self, tmp_path, capsys, rows):
        full, empty = tmp_path / "full.csv", tmp_path / "empty.csv"
        full.write_text(self.CSV, encoding="utf-8")
        empty.write_text(self.HEADER + rows, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(full)]) == 0
        assert main(["ingest", "--out", str(out), "--input", str(empty)]) == 3
        assert list((out / "series").iterdir()) == []
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stations_written"] == []
        assert main(["trend", "--out", str(out)]) == 3
        assert "no stations to process" in capsys.readouterr().err

    def test_pollutant_flag_takes_the_data_spellings(self, tmp_path):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        for flag in ("PM25", "pm2.5", "PM 2.5"):
            out = tmp_path / flag.replace(" ", "_")
            assert main(["ingest", "--out", str(out), "--input", str(src),
                         "--pollutant", flag]) == 0
            assert stage_files(out / "series") == stage_files(tmp_path / "PM25" / "series")

    def test_unknown_pollutant_flag_is_schema_error_before_any_output(self, tmp_path, capsys):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        err = assert_refused(capsys, tmp_path / "out", "ingest", "--input", str(src),
                             "--pollutant", "O3",
                             reason="argument --pollutant: 'O3' is not a valid Pollutant")
        assert "{PM25,PM10,SO2,NO2,CO}" in err

    def test_pollutant_flag_is_case_insensitive(self, tmp_path):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        for flag in ("PM25", "pm25"):
            assert main(["ingest", "--out", str(tmp_path / flag), "--input", str(src),
                         "--pollutant", flag]) == 0
        for name in ("gitega_hourly.csv", "gitega_daily.csv"):
            assert (tmp_path / "PM25" / "series" / name).read_bytes() == (
                tmp_path / "pm25" / "series" / name
            ).read_bytes()

    @pytest.mark.parametrize("flag, reason", refused(
        ("--min-coverage=1.5", "argument --min-coverage: must lie in [0, 1]"),
        ("--min-coverage=-0.1", "argument --min-coverage: must lie in [0, 1]"),
        ("--min-coverage=nan", "argument --min-coverage: must lie in [0, 1]"),
        ("--station=", "argument --station: station name must be non-empty"),
        ("--station= ", "argument --station: station name must be non-empty"),
    ))
    def test_bad_argument_is_schema_error_before_any_output(self, tmp_path, capsys, flag, reason):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        assert_refused(capsys, tmp_path / "out", "ingest", "--input", str(src), flag,
                       reason=reason)

    def test_missing_input_is_usage_error_before_any_output(self, tmp_path, capsys):
        assert_refused(capsys, tmp_path / "out", "ingest",
                       reason="the following arguments are required: --input")

    ONE_INSTANT = [(0, "20"), (0, "1e308"), (0, "1e308")]

    @pytest.mark.parametrize("readings, others, code", [
        pytest.param(ONE_INSTANT, True, 0, id="one-instant"),
        pytest.param(ONE_INSTANT, False, 3, id="one-instant-alone"),
        pytest.param([(0, "1e308"), (30, "1e308")], True, 0, id="one-hour"),
    ])
    def test_overflowing_mean_fails_only_its_station(self, tmp_path, capsys, readings, others,
                                                     code):
        rows = [f"Gitega,2021-06-01T10:{minute:02d}:00+02:00,PM25,{value}\n"
                for minute, value in readings]
        src = tmp_path / "readings.csv"
        src.write_text(
            self.HEADER + "".join(rows) + (hourly_rows("Kiyovu") if others else ""),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src)]) == code
        err = capsys.readouterr().err
        assert "ingest: Gitega: " in err and "mean is not finite" in err
        written = sorted(path.name for path in (out / "series").glob("*.csv"))
        assert written == (["kiyovu_daily.csv", "kiyovu_hourly.csv"] if others else [])
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rows_accepted"] == len(readings) + (14 * 24 if others else 0)


class TestTrend:
    def test_five_files_per_station(self, pipeline_out):
        assert main(["trend", "--out", str(pipeline_out), "--workers", "1"]) == 0
        trend = pipeline_out / "trend"
        for slug in ("gitega", "rebero"):
            for suffix in (
                "hour_profile", "weekday_profile", "calendar", "seasonal", "who_exceedance",
            ):
                assert (trend / f"{slug}_{suffix}.csv").exists(), suffix
        summary = json.loads((trend / "summary.json").read_text())
        ranking = summary["station_ranking_by_median_hourly"]
        assert {r["station"] for r in ranking} == {"Gitega", "Rebero"}
        assert ranking[0]["median_hourly"] >= ranking[-1]["median_hourly"]
        assert summary["stations"]["Gitega"]["peak_weekday"] in (
            "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
        )

    def test_threshold_override(self, pipeline_out, tmp_path):
        # simulated means sit near 40: a 200 threshold flags nothing
        assert main([
            "trend", "--out", str(pipeline_out), "--workers", "1",
            "--who-threshold", "200", "--station", "Gitega",
        ]) == 0
        _, rows = read_csv(pipeline_out / "trend" / "gitega_who_exceedance.csv")
        assert all(row[2] == "false" for row in rows)

    def test_json_format(self, pipeline_out):
        assert main([
            "trend", "--out", str(pipeline_out), "--workers", "1", "--format", "json",
            "--station", "Gitega",
        ]) == 0
        payload = json.loads((pipeline_out / "trend" / "gitega_seasonal.json").read_text())
        assert all({"season", "mean", "count"} <= set(entry) for entry in payload)

    def test_tables_match_datetime_grouping(self, tmp_path):
        """Each trend CSV equals the table built by grouping the readings with ``datetime``."""
        rng = np.random.default_rng(19)
        present_hours = [*range(9, 24), 0, 1]  # local 02:00-08:59 never reports
        start = int(datetime(2021, 5, 17, tzinfo=LOCAL_TZ).timestamp())  # a Monday
        readings = []
        for day in range(28):  # 17 May to 13 June: long rainy, then long dry
            base = int(rng.integers(12, 19))  # the daily mean, either side of 15
            half = rng.integers(0, 6, 8)
            # hourly means that average to the base; four readings that average to each
            offsets = rng.permutation([*half, *-half, 0])
            for hour, offset in zip(present_hours, offsets):
                hour_start = start + day * 86400 + hour * 3600
                for quarter, jitter in enumerate((-1, 1, -2, 2)):
                    readings.append((hour_start + quarter * 900, base + int(offset) + jitter))
        source = tmp_path / "readings.csv"
        with open(source, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["station", "timestamp", "pollutant", "value"])
            for t, value in readings:
                stamp = datetime.fromtimestamp(t, timezone.utc).isoformat()
                writer.writerow(["Gitega", stamp, "PM25", value])
        out = tmp_path / "out"
        # 17 of 24 hours is 0.71 of a day
        assert main(["ingest", "--out", str(out), "--input", str(source),
                     "--min-coverage", "0.7"]) == 0
        assert main(["trend", "--out", str(out), "--workers", "1"]) == 0

        by_hour, by_date = collections.defaultdict(list), collections.defaultdict(list)
        for t, value in readings:
            local = datetime.fromtimestamp(t, LOCAL_TZ)
            by_hour[local.date(), local.hour].append(value)
            by_date[local.date()].append(value)
        hourly = {key: sum(v) / len(v) for key, v in by_hour.items()}
        daily = {day: sum(v) / len(v) for day, v in sorted(by_date.items())}

        def summary_row(label, values) -> list[str]:
            if not values:
                return [str(label), "0", "", "", "", "", "", ""]
            q1, median, q3 = (quantile_oracle(values, p) for p in (0.25, 0.5, 0.75))
            return [str(v) for v in (label, len(values), min(values), q1, median, q3,
                                     max(values), q3 - q1)]

        summary_header = ["count", "min", "q1", "median", "q3", "max", "iqr"]
        names = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
        by_season = collections.defaultdict(list)
        for day, mean in daily.items():
            by_season[SEASON_OF_MONTH[day.month]].append(mean)
        expected = {
            "hour_profile": (["hour", *summary_header], [
                summary_row(hour, [m for (_, h), m in hourly.items() if h == hour])
                for hour in range(24)
            ]),
            "weekday_profile": (["weekday", *summary_header], [
                summary_row(name, [m for day, m in daily.items() if day.weekday() == i])
                for i, name in enumerate(names)
            ]),
            "calendar": (["date", "mean"], [[day.isoformat(), str(m)] for day, m in daily.items()]),
            "seasonal": (["season", "mean", "count"], [
                [season.value, str(sum(v) / len(v)), str(len(v))]
                for season in Season if (v := by_season[season])
            ]),
            "who_exceedance": (["date", "value", "exceeds"], [
                [day.isoformat(), str(m), "true" if m > 15 else "false"]
                for day, m in daily.items()
            ]),
        }
        for name, (header, rows) in expected.items():
            assert read_csv(out / "trend" / f"gitega_{name}.csv") == (header, rows), name
        # the fixture reaches each written form
        assert expected["hour_profile"][1][2] == ["2", "0", "", "", "", "", "", ""]
        assert [row[0] for row in expected["seasonal"][1]] == ["long_dry", "long_rainy"]
        assert {row[2] for row in expected["who_exceedance"][1]} == {"true", "false"}

    @pytest.mark.parametrize("flag, reason", refused(
        ("--who-threshold=nan", "argument --who-threshold: must be finite"),
        ("--who-threshold=inf", "argument --who-threshold: must be finite"),
        ("--who-threshold=-inf", "argument --who-threshold: must be finite"),
        ("--workers=0", "argument --workers: workers must be >= 1"),
        ("--workers=-1", "argument --workers: workers must be >= 1"),
    ))
    def test_bad_argument_is_schema_error_before_any_output(self, tmp_path, capsys, flag,
                                                            reason):
        # an empty --out would exit 3 at the station lookup: 2 means it came first
        assert_refused(capsys, tmp_path / "out", "trend", "--workers", "1", flag, reason=reason)

    @pytest.mark.parametrize("command", ["trend", "forecast", "evaluate"])
    def test_without_ingest_is_empty(self, tmp_path, command):
        assert main([command, "--out", str(tmp_path), "--workers", "1"]) == 3


class TestForecast:
    def test_single_model_track(self, pipeline_out):
        assert main([
            "forecast", "--out", str(pipeline_out), "--models", "arima",
            "--horizon", "10", "--station", "Gitega", *FAST_EVAL,
        ]) == 0
        header, rows = read_csv(pipeline_out / "forecast" / "gitega_forecast.csv")
        assert header == ["date", "actual", "arima"]
        assert len(rows) == 10
        assert (pipeline_out / "forecast" / "gitega_arima_model.json").exists()

    def test_three_tracks_share_dates(self, pipeline_out):
        assert main([
            "forecast", "--out", str(pipeline_out), "--models", "arima,ann,gp",
            "--horizon", "6", "--station", "Gitega", *FAST_EVAL,
        ]) == 0
        header, rows = read_csv(pipeline_out / "forecast" / "gitega_forecast.csv")
        assert header == ["date", "actual", "arima", "ann", "gp", "gp_variance"]
        assert len(rows) == 6
        # horizon 6 < holdout, so every forecast date carries an actual
        assert all(row[1] != "" for row in rows)
        for name in ("arima", "ann", "gp"):
            assert (pipeline_out / "forecast" / f"gitega_{name}_model.json").exists()

    def test_ann_seed_follows_the_station_key(self, tmp_path):
        """Two spellings of one station train one network, as they simulate one series."""
        models = {}
        for name in ("Mount Kigali", "Mount-Kigali"):
            out = tmp_path / name
            assert main(["simulate", "--out", str(out), "--n-days", "80", "--station", name]) == 0
            assert main(["ingest", "--out", str(out),
                         "--input", str(out / "simulated_readings.csv")]) == 0
            assert main(["forecast", "--out", str(out), "--models", "ann", "--horizon", "3",
                         "--workers", "1"]) == 0
            model = json.loads((out / "forecast" / "mount_kigali_ann_model.json").read_text())
            models[name] = [model[field] for field in ("weights", "biases", "train_loss")]
        assert models["Mount-Kigali"] == models["Mount Kigali"]

    def test_horizon_zero_rejected(self, tmp_path, capsys):
        assert_refused(capsys, tmp_path / "out", "forecast", "--horizon", "0", *FAST_EVAL,
                       reason="argument --horizon: horizon must be >= 1")

    def test_unknown_model_rejected(self, tmp_path, capsys):
        assert_refused(capsys, tmp_path / "out", "forecast", "--models", "prophet", *FAST_EVAL,
                       reason="argument --models: unknown models: prophet "
                              "(choose from ('arima', 'ann', 'gp'))")


class TestEvaluate:
    def test_two_stations_three_models(self, pipeline_out):
        assert main([
            "evaluate", "--out", str(pipeline_out), "--models", "arima,ann,gp",
            "--seed", "0", *FAST_EVAL,
        ]) == 0
        header, rows = read_csv(pipeline_out / "evaluation" / "comparison.csv")
        assert header == [
            "station",
            "rmse_arima", "rmse_ann", "rmse_gpr",
            "mae_arima", "mae_ann", "mae_gpr",
        ]
        assert [row[0] for row in rows] == ["Gitega", "Rebero"]
        for row in rows:
            for cell in row[1:]:
                assert float(cell) >= 0.0
        report = json.loads((pipeline_out / "evaluation" / "evaluation_report.json").read_text())
        assert len(report["stations"]) == 2
        first = report["stations"][0]["models"]["arima"]
        assert len(first["predictions"]) == len(first["actuals"]) == 32

    def test_single_model_two_columns(self, pipeline_out):
        assert main([
            "evaluate", "--out", str(pipeline_out), "--models", "arima",
            "--station", "Gitega", *FAST_EVAL,
        ]) == 0
        header, rows = read_csv(pipeline_out / "evaluation" / "comparison.csv")
        assert header == ["station", "rmse_arima", "mae_arima"]
        assert len(rows) == 1

    def test_model_named_twice_runs_once(self, pipeline_out):
        assert main([
            "evaluate", "--out", str(pipeline_out), "--models", "arima,ARIMA",
            "--station", "Gitega", *FAST_EVAL,
        ]) == 0
        header, _ = read_csv(pipeline_out / "evaluation" / "comparison.csv")
        assert header == ["station", "rmse_arima", "mae_arima"]
        report = json.loads((pipeline_out / "evaluation" / "evaluation_report.json").read_text())
        assert report["models"] == ["arima"]

    def test_rerun_bitwise_identical(self, pipeline_out):
        args = [
            "evaluate", "--out", str(pipeline_out), "--models", "arima,ann",
            "--seed", "9", "--station", "Gitega", *FAST_EVAL,
        ]
        assert main(args) == 0
        first = (pipeline_out / "evaluation" / "comparison.csv").read_bytes()
        assert main(args) == 0
        second = (pipeline_out / "evaluation" / "comparison.csv").read_bytes()
        assert first == second

    @staticmethod
    def assert_pool_matches_serial(out: Path, command: str, *flags: str) -> None:
        """Every file ``command`` writes is byte-identical with one worker and two."""
        stage_dir = out / STAGE_DIRS[command]
        written = []
        for workers in ("1", "2"):
            shutil.rmtree(stage_dir, ignore_errors=True)
            assert main([command, "--out", str(out), *flags, "--workers", workers]) == 0
            written.append(stage_files(stage_dir))
        serial, pooled = written
        assert serial and serial == pooled

    def test_worker_pool_matches_serial(self, pipeline_out):
        flags = ["--models", "arima", "--seed", "4", "--arima-grid", "1,0,1"]
        self.assert_pool_matches_serial(pipeline_out, "evaluate", *flags)
        self.assert_pool_matches_serial(pipeline_out, "forecast", *flags)
        self.assert_pool_matches_serial(pipeline_out, "trend")

    def test_worker_pool_matches_serial_blas_models(self, pipeline_out):
        # ANN and GP do their work in BLAS, whose sums depend on its thread count.
        flags = ["--models", "ann,gp", "--seed", "4"]
        self.assert_pool_matches_serial(pipeline_out, "evaluate", *flags)
        self.assert_pool_matches_serial(pipeline_out, "forecast", *flags)

    def test_blas_threads_restored_after_main(self, pipeline_out):
        before = blas_thread_counts()
        assert main([
            "evaluate", "--out", str(pipeline_out), "--models", "gp",
            "--station", "Gitega", *FAST_EVAL,
        ]) == 0
        assert blas_thread_counts() == before

    def test_single_blas_thread_pins_and_restores(self):
        before = blas_thread_counts()
        with single_blas_thread():
            assert blas_thread_counts() == [1] * len(before)
        assert blas_thread_counts() == before


class TestOutputFormat:
    @pytest.mark.parametrize("first,last", [("csv", "json"), ("json", "csv")])
    @pytest.mark.parametrize("command,flags", [
        pytest.param("trend", ["--workers", "1"], id="trend"),
        pytest.param("forecast", ["--models", "arima", "--horizon", "5", *FAST_EVAL], id="forecast"),
        pytest.param("evaluate", ["--models", "arima", *FAST_EVAL], id="evaluate"),
    ])
    def test_rerun_in_other_format_leaves_only_its_tables(
        self, pipeline_out, tmp_path, command, flags, first, last
    ):
        """A stage run with one --format and then the other leaves the same
        files as a single run with the last format: no stale twin."""
        def run(out: Path, fmt: str) -> list[str]:
            assert main([command, "--out", str(out), "--station", "Gitega",
                         "--format", fmt, *flags]) == 0
            return sorted(path.name for path in (out / STAGE_DIRS[command]).iterdir())

        run(fresh_out(pipeline_out, tmp_path / "twice"), first)
        twice = run(tmp_path / "twice", last)
        once = run(fresh_out(pipeline_out, tmp_path / "once"), last)
        assert twice == once
        tables = [name for name in once if name.endswith(f".{last}")]
        assert tables and not any(name.endswith(f".{first}") for name in tables)
        if command == "trend":
            summary = json.loads((tmp_path / "twice" / "trend" / "summary.json").read_text())
            listed = sorted(Path(f).name for f in summary["stations"]["Gitega"]["files"])
            assert listed == [name for name in twice if name != "summary.json"]


def grid_reason(grid: str) -> str:
    return f"argument --arima-grid: arima grid must be 'p_max,d_max,q_max' integers, got '{grid}'"


#: (bad model flag, argparse's reason, test id): each refused by forecast and evaluate
BAD_MODEL_FLAGS = [
    *[(f"--arima-grid={grid}", grid_reason(grid), grid)
      for grid in ("1,2", "1,0,1,1", "a,0,0", "1.5,0,0")],
    ("--arima-grid=11,0,0", "argument --arima-grid: p must be in 0..10", "11,0,0"),
    ("--arima-grid=1,3,1", "argument --arima-grid: d must be in 0..2", "1,3,1"),
    ("--arima-grid=1,0,11", "argument --arima-grid: q must be in 0..10", "1,0,11"),
    ("--arima-grid=-1,0,1", "argument --arima-grid: p must be in 0..10", "-1,0,1"),
    ("--holdout=abc", "argument --holdout: --holdout must be a fraction in (0, 1) or an "
                      "integer count, got 'abc'", "holdout=abc"),
    ("--holdout=0", "argument --holdout: count must be >= 1", "holdout=0"),
    ("--workers=0", "argument --workers: workers must be >= 1", "workers=0"),
    ("--holdout=1.5", "argument --holdout: fraction must lie in (0, 1)", "holdout=1.5"),
    ("--models=prophet", "argument --models: unknown models: prophet "
                         "(choose from ('arima', 'ann', 'gp'))", "models=prophet"),
]


class TestForecasterContract:
    """`forecast` and `evaluate` build and fit the same forecasters."""

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    @pytest.mark.parametrize(
        "flag, reason", [pytest.param(flag, reason, id=id) for flag, reason, id in BAD_MODEL_FLAGS]
    )
    def test_bad_arima_grid_is_schema_error(self, tmp_path, capsys, command, flag, reason):
        """Any bad model flag, the ARIMA grid among them, exits 2."""
        # an empty --out would exit 3 at the station lookup: 2 means it came first
        assert_refused(capsys, tmp_path / "out", command, flag, reason=reason)

    @pytest.mark.parametrize(
        "holdout, message",
        [
            ("0", "count must be >= 1"),
            ("-3", "count must be >= 1"),
            ("1.5", "fraction must lie in (0, 1)"),
            ("abc", "--holdout must be a fraction in (0, 1) or an integer count, got 'abc'"),
        ],
    )
    def test_holdout_error_names_the_reading(self, tmp_path, capsys, holdout, message):
        assert_refused(capsys, tmp_path / "out", "evaluate", f"--holdout={holdout}",
                       reason=f"argument --holdout: {message}")

    def test_first_forecast_step_is_first_evaluation_prediction(self, pipeline_out):
        args = ["--out", str(pipeline_out), "--models", "arima,ann,gp", "--station", "Gitega",
                "--seed", "3", "--holdout", "0.2", *FAST_EVAL]
        assert main(["forecast", "--horizon", "1", *args]) == 0
        assert main(["evaluate", *args]) == 0
        header, rows = read_csv(pipeline_out / "forecast" / "gitega_forecast.csv")
        report = json.loads((pipeline_out / "evaluation" / "evaluation_report.json").read_text())
        (station,) = report["stations"]
        for name in ("arima", "ann", "gp"):
            assert float(rows[0][header.index(name)]) == station["models"][name]["predictions"][0]

    def test_short_train_gp_refused_by_both_stages(self, pipeline_out, capsys):
        # a count holdout leaves a 5-point train; the GP needs 10
        args = ["--out", str(pipeline_out), "--models", "gp", "--station", "Gitega",
                "--holdout", "155", *FAST_EVAL]
        for command in ("forecast", "evaluate"):
            capsys.readouterr()
            assert main([command, *args]) == 4
            assert "need at least 10 observations to fit the GP" in capsys.readouterr().err


class TestTwoWeeksHourly:
    """Model stages on two weeks of hourly Gitega readings, hourly and daily."""

    @pytest.fixture(scope="class")
    def ingested(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("two_weeks")
        (out / "readings.csv").write_text(TestIngest.HEADER + hourly_rows(), encoding="utf-8")
        assert main(["ingest", "--out", str(out), "--input", str(out / "readings.csv")]) == 0
        return out

    @pytest.mark.parametrize("granularity, holdout, dates", [
        ("hourly", "24", [f"2021-06-14T{h:02d}:00:00+02:00" for h in range(3)]),
        ("daily", "2", ["2021-06-13", "2021-06-14", "2021-06-15"]),
    ])
    def test_forecast_dates_follow_the_train_split(self, ingested, tmp_path, granularity,
                                                  holdout, dates):
        """The date column holds each step's local ISO-8601 hour in an hourly
        run and its local date in a daily run, from the step after the train split."""
        out = fresh_out(ingested, tmp_path)
        assert main(["forecast", "--out", str(out), "--granularity", granularity,
                     "--holdout", holdout, "--horizon", "3", "--models", "ann",
                     "--workers", "1"]) == 0
        header, rows = read_csv(out / "forecast" / "gitega_forecast.csv")
        assert header == ["date", "actual", "ann"]
        assert [row[0] for row in rows] == dates

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, results, kept", [
        pytest.param("forecast", ["gitega_forecast.{fmt}"], ["gitega_ann_model.json"],
                     id="forecast"),
        pytest.param("evaluate", ["comparison.{fmt}", "evaluation_report.json"], [],
                     id="evaluate"),
    ])
    def test_rerun_with_no_model_leaves_no_earlier_result(self, ingested, tmp_path, capsys,
                                                         fmt, command, results, kept):
        """A rerun in which no model succeeds (7 daily train points are too few
        for the ANN) exits 4 and removes the hourly run's results; model files,
        fit caches keyed by their data, stay."""
        out = fresh_out(ingested, tmp_path)
        folder = out / STAGE_DIRS[command]
        args = [command, "--out", str(out), "--models", "ann", "--workers", "1",
                *(["--horizon", "3"] if command == "forecast" else [])]
        assert main([*args, "--granularity", "hourly", "--format", fmt]) == 0
        written = sorted(path.name for path in folder.iterdir())
        assert written == sorted([*kept, *(name.format(fmt=fmt) for name in results)])
        capsys.readouterr()
        assert main([*args, "--holdout", "7"]) == 4
        assert "need at least 8 observations, got 7" in capsys.readouterr().err
        assert sorted(path.name for path in folder.iterdir()) == kept

    @pytest.mark.parametrize("command, results, kept", [
        pytest.param("forecast", ["gitega_forecast.csv"], ["gitega_ann_model.json"],
                     id="forecast"),
        pytest.param("evaluate", ["comparison.csv", "evaluation_report.json"], [],
                     id="evaluate"),
    ])
    def test_rerun_that_cannot_run_leaves_no_earlier_result(self, ingested, tmp_path, capsys,
                                                            command, results, kept):
        """A rerun whose split leaves no train points (14 held-out days of 14)
        exits 3 and removes the earlier run's results; model files stay."""
        out = fresh_out(ingested, tmp_path)
        folder = out / STAGE_DIRS[command]
        args = [command, "--out", str(out), "--models", "ann", "--workers", "1",
                *(["--horizon", "3"] if command == "forecast" else [])]
        assert main(args) == 0
        assert sorted(path.name for path in folder.iterdir()) == sorted([*kept, *results])
        capsys.readouterr()
        assert main([*args, "--holdout", "14"]) == 3
        assert "split leaves train=0" in capsys.readouterr().err
        assert sorted(path.name for path in folder.iterdir()) == kept


MODELS = ("arima", "ann", "gp")
REUSE_ARGS = ["--models", ",".join(MODELS), "--seed", "3", *FAST_EVAL]


@pytest.fixture
def fit_events(monkeypatch):
    """(model, "fit" or "load") for each adapter fit or restore during the test."""
    events = []
    for adapter in (ArimaAdapter, AnnAdapter, GpAdapter):
        for method in ("fit", "load"):
            def spy(self, *args, _real=getattr(adapter, method), _method=method):
                events.append((self.name, _method))
                return _real(self, *args)

            monkeypatch.setattr(adapter, method, spy)
    return events


class TestFitReuse:
    """`evaluate` restores the fits `forecast` stored under the same key."""

    @pytest.fixture(scope="class")
    def gitega_alone(self, pipeline_out, tmp_path_factory):
        """Gitega's evaluation/ files from `evaluate` with no model files present."""
        out = fresh_out(pipeline_out, tmp_path_factory.mktemp("alone"))
        assert main(["evaluate", "--out", str(out), "--station", "Gitega", *REUSE_ARGS]) == 0
        return stage_files(out / "evaluation")

    @pytest.fixture(scope="class")
    def gitega_forecast(self, pipeline_out, tmp_path_factory):
        out = fresh_out(pipeline_out, tmp_path_factory.mktemp("forecast"))
        assert main(["forecast", "--out", str(out), "--station", "Gitega", *REUSE_ARGS]) == 0
        return out

    def test_evaluate_after_forecast_matches_evaluate_alone(self, pipeline_out, tmp_path,
                                                           fit_events):
        alone = fresh_out(pipeline_out, tmp_path / "alone")
        assert main(["evaluate", "--out", str(alone), *REUSE_ARGS]) == 0
        reused = fresh_out(pipeline_out, tmp_path / "reused")
        assert main(["forecast", "--out", str(reused), *REUSE_ARGS]) == 0
        fit_events.clear()
        assert main(["evaluate", "--out", str(reused), *REUSE_ARGS]) == 0
        assert collections.Counter(fit_events) == {(name, "load"): 2 for name in MODELS}
        assert stage_files(reused / "evaluation") == stage_files(alone / "evaluation")
        for name in MODELS:
            stored = json.loads((reused / "forecast" / f"gitega_{name}_model.json").read_text())
            assert len(stored["fit_key"]) == 64

    def test_each_station_model_fits_once_across_both_stages(self, pipeline_out, tmp_path,
                                                             monkeypatch):
        calls = collections.Counter()
        for module, name in ((arima, "select_order"), (ann, "train"), (gp, "fit_hyperparameters")):
            def counting(*args, _real=getattr(module, name), _site=f"{module.__name__}.{name}"):
                calls[_site] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        out = fresh_out(pipeline_out, tmp_path / "out")
        for command in ("forecast", "evaluate"):
            assert main([command, "--out", str(out), *REUSE_ARGS]) == 0
        # two stations, each model fitted once per station
        assert calls == {
            "aircast.arima.select_order": 2,
            "aircast.ann.train": 2,
            "aircast.gp.fit_hyperparameters": 2,
        }

    @staticmethod
    def change_one_train_value(out: Path) -> None:
        path = out / "series" / "gitega_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        stamp, value = lines[3].rstrip("\n").split(",")
        lines[3] = f"{stamp},{float(value) + 0.5}\n"
        path.write_text("".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("change, flags, refitted", [
        pytest.param("train value", [], set(MODELS), id="train-value"),
        pytest.param("seed", ["--seed", "4"], {"ann"}, id="seed"),
        pytest.param("arima grid", ["--arima-grid", "1,0,0"], {"arima"}, id="arima-grid"),
        pytest.param("holdout", ["--holdout", "0.25"], set(MODELS), id="holdout"),
    ])
    def test_changed_input_forces_a_refit(self, gitega_forecast, tmp_path, fit_events,
                                          change, flags, refitted):
        out = shutil.copytree(gitega_forecast, tmp_path / "out")
        if change == "train value":
            self.change_one_train_value(out)
        fit_events.clear()
        assert main(["evaluate", "--out", str(out), "--station", "Gitega",
                     *REUSE_ARGS, *flags]) == 0
        assert sorted(fit_events) == sorted(
            (name, "fit" if name in refitted else "load") for name in MODELS
        )

    #: (model, edit) of each damage that keeps a model file's key but that
    #: model's ``load`` refuses
    REFUSED_BY_LOAD = {
        "refused by load": ("ann", lambda stored: stored["weights"][0].pop()),  # a hidden row
        "ann scaler shift not a number": ("ann", lambda stored: stored["scaler"].update(shift="x")),
        "arima extra AR coefficient": ("arima", lambda stored: stored["beta"].append(0.1)),
        "arima two extra MA coefficients": ("arima",
                                            lambda stored: stored["theta"].extend([0.1, 0.1])),
        "arima alpha not a number": ("arima", lambda stored: stored.update(alpha="x")),
        "arima alpha NaN": ("arima", lambda stored: stored.update(alpha=float("nan"))),
        "ann weight NaN": ("ann", lambda stored: stored["weights"][0][0].__setitem__(0, float("nan"))),
    }

    @pytest.mark.parametrize("damage, damaged, events", [
        *(pytest.param(damage, MODELS, [(name, "fit") for name in MODELS], id=damage)
          for damage in ("other key", "truncated", "no key", "not an object")),
        *(pytest.param(damage, (model,),
                       [(name, "load") for name in MODELS] + [(model, "fit")], id=damage)
          for damage, (model, _) in REFUSED_BY_LOAD.items()),
    ])
    def test_damaged_model_file_means_a_fresh_fit(self, gitega_forecast, gitega_alone, tmp_path,
                                                 fit_events, damage, damaged, events):
        out = shutil.copytree(gitega_forecast, tmp_path / "out")
        for name in damaged:
            path = out / "forecast" / f"gitega_{name}_model.json"
            text = path.read_text(encoding="utf-8")
            stored = json.loads(text)
            if damage == "other key":
                stored["fit_key"] = "0" * 64
            elif damage == "no key":
                del stored["fit_key"]
            elif damage == "not an object":
                stored = [stored]
            elif damage in self.REFUSED_BY_LOAD:
                self.REFUSED_BY_LOAD[damage][1](stored)
            path.write_text(
                text[: len(text) // 2] if damage == "truncated" else json.dumps(stored),
                encoding="utf-8",
            )
        fit_events.clear()
        assert main(["evaluate", "--out", str(out), "--station", "Gitega", *REUSE_ARGS]) == 0
        assert sorted(fit_events) == sorted(events)
        assert stage_files(out / "evaluation") == gitega_alone


class TestDamagedSeriesFile:
    """A series file that does not read fails its own station; the others go on."""

    @pytest.mark.parametrize("damage, reason", [
        pytest.param("naive stamp", "lacks a UTC offset", id="naive-stamp"),
        pytest.param("bad value", "could not convert", id="bad-value"),
        pytest.param("oversized field", "malformed csv", id="oversized-field"),
        pytest.param("undecodable byte", "could not convert", id="undecodable-byte"),
    ])
    @pytest.mark.parametrize("command, extra", [
        pytest.param("trend", [], id="trend"),
        pytest.param("forecast", ["--models", "arima", *FAST_EVAL], id="forecast"),
        pytest.param("evaluate", ["--models", "arima", *FAST_EVAL], id="evaluate"),
    ])
    def test_fails_only_its_own_station(self, pipeline_out, tmp_path, capsys, command, extra,
                                        damage, reason):
        out = fresh_out(pipeline_out, tmp_path / "out")
        path = out / "series" / "gitega_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        stamp, value = lines[3].rstrip("\n").split(",")
        lines[3] = {
            "naive stamp": f"{stamp[:-len('+02:00')]},{value}\n",
            "bad value": f"{stamp},n/a\n",
            "oversized field": f'{stamp},"{"1" * 131_073}"\n',  # over csv's field size limit
            "undecodable byte": f"{stamp},{value}\udcff\n",  # written as the byte 0xFF
        }[damage]
        path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")

        assert main([command, "--out", str(out), *extra, "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert f"{path}, line 4: " in err and reason in err
        if command == "evaluate":
            _, rows = read_csv(out / "evaluation" / "comparison.csv")
            assert {row[0]: row[1] != "" for row in rows} == {"Gitega": False, "Rebero": True}
        else:
            written = {name.name.split("_")[0] for name in (out / STAGE_DIRS[command]).iterdir()}
            assert "rebero" in written and "gitega" not in written


class TestStationFailures:
    """A station that cannot run (no series, or one that does not read) fails
    as a whole: one stderr line ``<command>: <station>: <why>``, and exit 3
    when no station could run, the same for each station stage."""

    COMMANDS = [
        pytest.param("trend", [], id="trend"),
        pytest.param("forecast", ["--models", "arima", *FAST_EVAL], id="forecast"),
        pytest.param("evaluate", ["--models", "arima", *FAST_EVAL], id="evaluate"),
    ]

    @staticmethod
    def negative_gitega_value(out: Path) -> Path:
        """Gitega's daily series with a negative value on line 2; returns its path."""
        path = out / "series" / "gitega_daily.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([header, first.split(",")[0] + ",-1.0\n", *rest]),
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("command, extra", COMMANDS)
    def test_station_without_series_exits_3(self, pipeline_out, tmp_path, capsys, command,
                                             extra):
        out = fresh_out(pipeline_out, tmp_path / "out")
        assert main([command, "--out", str(out), "--station", "Kiyovu", *extra]) == 3
        assert capsys.readouterr().err == f"{command}: Kiyovu: no ingested series found\n"
        assert not (out / STAGE_DIRS[command]).exists()

    @pytest.mark.parametrize("command, extra", COMMANDS)
    def test_unreadable_series_exits_3(self, pipeline_out, tmp_path, capsys, command, extra):
        out = fresh_out(pipeline_out, tmp_path / "out")
        path = self.negative_gitega_value(out)
        assert main([command, "--out", str(out), "--station", "Gitega", *extra]) == 3
        assert capsys.readouterr().err == f"{command}: Gitega: {path}, line 2: negative value\n"
        assert not (out / STAGE_DIRS[command]).exists()

    @pytest.mark.parametrize("command, extra", COMMANDS)
    def test_one_readable_station_exits_0(self, pipeline_out, tmp_path, capsys, command, extra):
        out = fresh_out(pipeline_out, tmp_path / "out")
        path = self.negative_gitega_value(out)
        assert main([command, "--out", str(out), *extra, "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert err.count(f"{command}: Gitega: {path}, line 2: negative value\n") == 1
        assert "[*]" not in err
        if command == "trend":
            assert list(strict_json(out / "trend" / "summary.json")["stations"]) == ["Rebero"]
        elif command == "evaluate":
            stations = strict_json(out / "evaluation" / "evaluation_report.json")["stations"]
            assert stations[0] == {
                "station": "Gitega", "split": "", "models": {},
                "errors": {"*": f"{path}, line 2: negative value"},
            }
            assert set(stations[1]["models"]) == {"arima"}
        else:
            assert (out / "forecast" / "rebero_forecast.csv").exists()
            assert not (out / "forecast" / "gitega_forecast.csv").exists()

    def test_any_aircast_error_at_a_station_fails_that_station(self, pipeline_out, tmp_path,
                                                              capsys, monkeypatch):
        """Not only a series that does not read: an AircastError from a later
        step at the station (here a trend computation) fails it as a whole."""
        day_of_week_profile = trends.day_of_week_profile
        calls = []

        def refuse_first_station(series):  # stations run in order, Gitega first
            calls.append(series)
            if len(calls) == 1:
                raise GranularityError("refused")
            return day_of_week_profile(series)

        monkeypatch.setattr(trends, "day_of_week_profile", refuse_first_station)
        out = fresh_out(pipeline_out, tmp_path / "out")
        assert main(["trend", "--out", str(out), "--workers", "1"]) == 0
        assert capsys.readouterr().err == "trend: Gitega: refused\n"
        assert list(strict_json(out / "trend" / "summary.json")["stations"]) == ["Rebero"]


class TestDamagedIngestReport:
    """An ingest report that is not an object listing the non-blank names of
    the stations written ends the stage with exit 2, naming the file, before
    any output. A report from before ``stations_written`` is one of these."""

    @pytest.mark.parametrize("damage", [
        "truncated", "list", "blank name", "number", "no stations_written",
    ])
    @pytest.mark.parametrize("command, extra", [
        pytest.param("trend", [], id="trend"),
        pytest.param("forecast", ["--models", "arima", *FAST_EVAL], id="forecast"),
        pytest.param("evaluate", ["--models", "arima", *FAST_EVAL], id="evaluate"),
    ])
    def test_exits_2_naming_the_report(self, pipeline_out, tmp_path, capsys, command, extra,
                                       damage):
        out = fresh_out(pipeline_out, tmp_path / "out")
        path = out / "ingest_report.json"
        text = path.read_text(encoding="utf-8")
        report = json.loads(text)
        path.write_text({
            "truncated": text[: len(text) // 2],
            "list": "[1, 2]",
            "blank name": json.dumps({**report, "stations_written": ["Gitega", " "]}),
            "number": json.dumps({**report, "stations_written": ["Gitega", 7]}),
            "no stations_written": json.dumps(
                {key: value for key, value in report.items() if key != "stations_written"}
            ),
        }[damage], encoding="utf-8")

        assert main([command, "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {path}: ")
        if damage != "truncated":
            assert err.endswith("(re-run ingest to rewrite it)\n")
        assert "Traceback" not in err
        assert not (out / STAGE_DIRS[command]).exists()


class TestSeriesFile:
    """write_series_csv and load_series_csv: a round trip, and the first row
    that does not read names the error, with the file written and read in
    chunks of 2, of 3 and of the default size, so bad rows, blank lines and
    quoted multi-line values fall on chunk boundaries."""

    CHUNK_SIZES = (2, 3, ingest.CHUNK_ROWS)

    def test_round_trip(self, tmp_path, monkeypatch):
        at = BASE_EPOCH + 3600 * np.array([0, 1, 2, 5, 30_000], dtype=np.int64)
        series = TimeSeries(Granularity.HOURLY, at, np.array([1.5, 0.1 + 0.2, 1e-300, 7.0, 1e300]))
        path = tmp_path / "s.csv"
        write_series_csv(path, series)
        written = path.read_bytes()
        assert written.decode("utf-8").splitlines()[:2] == [
            "timestamp,value", "2021-01-01T00:00:00+02:00,1.5"
        ]
        for chunk_rows in self.CHUNK_SIZES:
            monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
            write_series_csv(path, series)
            assert path.read_bytes() == written
            loaded = load_series_csv(path, Granularity.HOURLY)
            assert loaded.at.tolist() == at.tolist()
            assert loaded.values.tobytes() == series.values.tobytes()

    @pytest.mark.parametrize("body, line, reason", [
        ("2021-01-01T00:00:00+02:00,1\n2021-01-01T01:00:00+02:00,1,2\n", 3, "too many values"),
        ("2021-01-01T00:00:00+02:00\n2021-01-01T01:00:00+02:00,x\n", 2, "not enough values"),
        ("2021-01-01T00:00:00,1\n2021-01-01T01:00:00+02:00,x\n", 2, "lacks a UTC offset"),
        ("2021-01-01T00:00:00+02:00,x\n2021-01-01T01:00:00,1\n", 2, "could not convert"),
        ('2021-01-01T00:00:00+02:00,"1\n2"\n\n2021-01-01T01:00:00+02:00,y\n', 3, "could not convert"),
        ('"2021-01-01T00:00:00+02:00",1\n\n2021-01-01T01:00:00Z,1\nnow,1\n', 5, "Invalid isoformat"),
        pytest.param(  # a field over csv's size limit
            '2021-01-01T00:00:00+02:00,1\n2021-01-01T01:00:00+02:00,"' + "1" * 131_073 + '"\nnow,1\n',
            3, "malformed csv", id="oversized-field",
        ),
        # ingest's value rule: finite and non-negative, the first reason that holds
        pytest.param("2021-01-01T00:00:00+02:00,1\n2021-01-01T01:00:00+02:00,-1.7e308\n",
                     3, "negative value", id="negative-value"),
        pytest.param("2021-01-01T00:00:00+02:00,-0.5\n2021-01-01T01:00:00+02:00,x\n",
                     2, "negative value", id="negative-before-unparseable"),
        pytest.param("2021-01-01T00:00:00+02:00,1\n2021-01-01T01:00:00+02:00,inf\n",
                     3, "non-finite value", id="infinite-value"),
        pytest.param("2021-01-01T00:00:00+02:00,-inf\n", 2, "non-finite value",
                     id="negative-infinity"),
        pytest.param("2021-01-01T00:00:00+02:00,nan\n2021-01-01T01:00:00+02:00,-1\n",
                     2, "non-finite value", id="nan-before-negative"),
    ])
    def test_first_bad_row_names_the_error(self, tmp_path, monkeypatch, body, line, reason):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n" + body, encoding="utf-8")
        for chunk_rows in self.CHUNK_SIZES:
            monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
            with pytest.raises(SchemaError, match=f"line {line}: .*{reason}"):
                load_series_csv(path, Granularity.HOURLY)

    def test_negative_zero_reads(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2021-01-01T00:00:00+02:00,-0.0\n", encoding="utf-8")
        assert load_series_csv(path, Granularity.HOURLY).values.tolist() == [0.0]

    def test_trend_refuses_a_negative_hourly_value(self, tmp_path, capsys):
        """A hand-written hourly file whose finite values span the float range
        fails its station by the value rule, where trend once overflowed to an
        infinite median and spread."""
        at = BASE_EPOCH + 86_400 * np.arange(4, dtype=np.int64)
        values = np.array([-1.7e308, -1.6e308, 1.6e308, 1.7e308])
        path = tmp_path / "series" / "gitega_hourly.csv"
        write_series_csv(path, TimeSeries(Granularity.HOURLY, at, values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["trend", "--out", str(tmp_path), "--station", "Gitega", "--workers", "1"])
        assert code == 3
        assert f"trend: Gitega: {path}, line 2: negative value" in capsys.readouterr().err
        assert not (tmp_path / "trend" / "gitega_hour_profile.csv").exists()

    def test_blank_file_is_absent(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n\n", encoding="utf-8")
        assert load_series_csv(path, Granularity.HOURLY) is None


class TestLongSeries:
    """More points than the exact GP's 2000-point cap: GP fails, the run goes on."""

    @pytest.fixture(scope="class")
    def long_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("long")
        assert main([
            "simulate", "--out", str(out), "--seed", "5", "--n-days", "2600",
            "--station", "Gitega",
        ]) == 0
        assert main([
            "ingest", "--out", str(out), "--input", str(out / "simulated_readings.csv"),
        ]) == 0
        return out

    def test_gp_error_recorded_beside_arima(self, long_out):
        assert main(["evaluate", "--out", str(long_out), "--models", "arima,gp", *FAST_EVAL]) == 0
        header, rows = read_csv(long_out / "evaluation" / "comparison.csv")
        assert header == ["station", "rmse_arima", "rmse_gpr", "mae_arima", "mae_gpr"]
        (row,) = rows
        assert float(row[1]) > 0.0 and row[2] == ""
        report = json.loads((long_out / "evaluation" / "evaluation_report.json").read_text())
        (station,) = report["stations"]
        assert set(station["models"]) == {"arima"}
        assert "capped at 2000" in station["errors"]["gp"]

    def test_gp_alone_is_no_model(self, long_out):
        assert main(["evaluate", "--out", str(long_out), "--models", "gp", *FAST_EVAL]) == 4
        assert main(["forecast", "--out", str(long_out), "--models", "gp", *FAST_EVAL]) == 4


def ingest_with_a_huge_gitega_reading(out: Path, *indices: int, value: str = "1e200") -> Path:
    """Simulate 120 days of Gitega and Kiyovu, set Gitega's readings number
    ``indices`` (in its own time order) to ``value``, and ingest."""
    assert main([
        "simulate", "--out", str(out), "--n-days", "120",
        "--station", "Gitega", "--station", "Kiyovu",
    ]) == 0
    path = out / "simulated_readings.csv"
    header, rows = read_csv(path)
    gitega = [row for row in rows if row[0] == "Gitega"]
    for index in indices:
        gitega[index][3] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert main(["ingest", "--out", str(out), "--input", str(path)]) == 0
    return out


class TestOverflowingMedian:
    def test_trend_writes_a_finite_median_as_strict_json(self, tmp_path):
        """Two finite hourly values whose sum overflows have a finite median."""
        at = BASE_EPOCH + 3600 * np.arange(2, dtype=np.int64)
        write_series_csv(tmp_path / "series" / "gitega_hourly.csv",
                         TimeSeries(Granularity.HOURLY, at, np.array([1.7e308, 1.75e308])))
        assert main(["trend", "--out", str(tmp_path), "--station", "Gitega", "--workers", "1"]) == 0
        summary = strict_json(tmp_path / "trend" / "summary.json")
        (entry,) = summary["station_ranking_by_median_hourly"]
        assert entry["median_hourly"] == pytest.approx(1.725e308, rel=1e-12)


class TestOverflowingSpread:
    """A train split whose spread overflows fails the ANN and the GP of its
    station only; ARIMA and the other station are written."""

    @pytest.fixture(scope="class")
    def spread_out(self, tmp_path_factory):
        return ingest_with_a_huge_gitega_reading(tmp_path_factory.mktemp("spread"), 0)

    ARGS = ["--models", "arima,ann,gp", "--arima-grid", "1,0,1", "--workers", "2"]

    def test_forecast_records_the_ann_and_gp_errors(self, spread_out, tmp_path, capsys):
        out = fresh_out(spread_out, tmp_path / "out")
        assert main(["forecast", "--out", str(out), *self.ARGS]) == 0
        err = capsys.readouterr().err
        assert "Gitega [ann]: the training values' mean or spread is not finite" in err
        assert "Gitega [gp]: the training values' variance is not finite" in err
        models = sorted(path.name for path in (out / "forecast").glob("*_model.json"))
        assert models == [
            "gitega_arima_model.json",
            "kiyovu_ann_model.json", "kiyovu_arima_model.json", "kiyovu_gp_model.json",
        ]
        for path in (out / "forecast").glob("*_model.json"):
            strict_json(path)
        header, rows = read_csv(out / "forecast" / "gitega_forecast.csv")
        assert header == ["date", "actual", "arima"]
        assert all(np.isfinite(float(row[2])) for row in rows)

    def test_evaluate_records_the_ann_and_gp_errors(self, spread_out, tmp_path, capsys):
        out = fresh_out(spread_out, tmp_path / "out")
        assert main(["evaluate", "--out", str(out), *self.ARGS]) == 0
        report = strict_json(out / "evaluation" / "evaluation_report.json")
        stations = {station["station"]: station for station in report["stations"]}
        assert set(stations["Gitega"]["models"]) == {"arima"}
        assert set(stations["Gitega"]["errors"]) == {"ann", "gp"}
        assert set(stations["Kiyovu"]["models"]) == {"arima", "ann", "gp"}
        assert stations["Kiyovu"]["errors"] == {}
        _, rows = read_csv(out / "evaluation" / "comparison.csv")
        assert {row[0]: [cell != "" for cell in row[1:4]] for row in rows} == {
            "Gitega": [True, False, False], "Kiyovu": [True, True, True],
        }


class TestOverflowingHoldout:
    def test_evaluate_writes_finite_errors_and_strict_json(self, tmp_path):
        """A held-out reading whose squared error overflows still gives each
        model a finite RMSE, of the order of that reading."""
        out = ingest_with_a_huge_gitega_reading(tmp_path, -5)
        assert main(["evaluate", "--out", str(out), "--models", "arima,ann,gp",
                     "--arima-grid", "1,0,1", "--workers", "1"]) == 0
        report = strict_json(out / "evaluation" / "evaluation_report.json")
        gitega = next(station for station in report["stations"] if station["station"] == "Gitega")
        assert set(gitega["models"]) == {"arima", "ann", "gp"}
        header, rows = read_csv(out / "evaluation" / "comparison.csv")
        (row,) = [row for row in rows if row[0] == "Gitega"]
        for column in ("rmse_arima", "rmse_ann", "rmse_gpr"):
            assert 1e198 < float(row[header.index(column)]) < 1e200

    def test_overflowing_gp_history_fails_the_gp_alone(self, tmp_path):
        """Two held-out readings of 1e308 are valid, but the GP history that
        holds both has a mean that overflows: the GP's failure is recorded,
        the other models and station are written, and the JSON stays strict."""
        out = ingest_with_a_huge_gitega_reading(tmp_path, -2, -3, value="1e308")
        assert main(["evaluate", "--out", str(out), "--models", "arima,ann,gp",
                     "--arima-grid", "1,0,1", "--workers", "1"]) == 0
        report = strict_json(out / "evaluation" / "evaluation_report.json")
        stations = {station["station"]: station for station in report["stations"]}
        assert set(stations["Gitega"]["models"]) == {"arima", "ann"}
        assert "mean is not finite" in stations["Gitega"]["errors"]["gp"]
        assert set(stations["Kiyovu"]["models"]) == {"arima", "ann", "gp"}


class TestOverflowingEvidence:
    def test_non_finite_gp_evidence_fails_the_gp_alone(self, tmp_path, capsys):
        """Sixty readings of 1e300 fit a GP whose centred targets' sum of squares
        overflows: both stages refuse that fit without a warning, record the
        GP's failure alone, and every JSON they write is strict."""
        at = BASE_EPOCH + 86400 * np.arange(60, dtype=np.int64)
        write_series_csv(tmp_path / "series" / "gitega_daily.csv",
                         TimeSeries(Granularity.DAILY, at, np.full(60, 1e300)))
        args = ["--out", str(tmp_path), "--station", "Gitega", "--models", "arima,ann,gp",
                "--arima-grid", "1,0,1", "--workers", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["forecast", *args]) == 0
            assert main(["evaluate", *args]) == 0
        errors = [line for line in capsys.readouterr().err.splitlines() if "Gitega [" in line]
        assert errors == [
            f"{stage}: Gitega [gp]: the GP fit's log marginal likelihood is not finite"
            for stage in ("forecast", "evaluate")
        ]
        header, _ = read_csv(tmp_path / "forecast" / "gitega_forecast.csv")
        assert header == ["date", "actual", "arima", "ann"]
        report = strict_json(tmp_path / "evaluation" / "evaluation_report.json")
        (station,) = report["stations"]
        assert set(station["models"]) == {"arima", "ann"}
        assert set(station["errors"]) == {"gp"}
        written = sorted(tmp_path.rglob("*.json"))
        assert {path.name for path in written} >= {
            "gitega_arima_model.json", "gitega_ann_model.json", "evaluation_report.json",
        }
        for path in written:
            strict_json(path)


LOADED_SCIPY = "sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy')"


def run_fresh(code: str, *argv: str, path: Sequence[Path] = ()) -> str:
    """stdout of ``code`` run by a fresh interpreter that finds this aircast,
    with no BLAS thread count set in its environment."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(map(str, [SRC, *path]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def stage_worker_blas(pipeline_out: Path, tmp_path: Path, start: str, models: str) -> tuple[int, list]:
    """Runs ``evaluate --models models --workers 2`` on a copy of the pipeline
    in a fresh process whose pool starts workers by ``start``. Each station
    worker runs the stage's own ``_evaluate_station`` and then notes whether
    scipy.linalg is loaded in its process and the thread count of each OpenBLAS
    loaded there. Returns the number of OpenBLAS libraries loaded in the
    parent and the workers' notes."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    (tmp_path / "blas_probe.py").write_text(
        "import json, sys\n"
        "from aircast import cli\n"
        "\n"
        "_evaluate_station = cli._evaluate_station\n"
        "\n"
        "def evaluate_station(args, station):\n"
        "    report, errors = _evaluate_station(args, station)\n"
        "    threads = [get() for get, _ in cli._openblas_thread_controls()]\n"
        "    report.errors['blas'] = json.dumps(['scipy.linalg' in sys.modules, threads])\n"
        "    return report, errors\n",
        encoding="utf-8",
    )
    code = (
        "import multiprocessing, sys\n"
        "from aircast import cli\n"
        "import blas_probe\n"
        "multiprocessing.set_start_method(sys.argv[2])\n"
        "cli._evaluate_station = blas_probe.evaluate_station\n"
        "assert cli.main(['evaluate', '--out', sys.argv[1], '--models', sys.argv[3],\n"
        "                 '--workers', '2', '--arima-grid', '1,0,1']) == 0\n"
        "print(len(cli._openblas_thread_controls()))\n"
    )
    loaded = int(run_fresh(code, str(out), start, models, path=[tmp_path]).splitlines()[-1])
    report = json.loads((out / "evaluation" / "evaluation_report.json").read_text())
    assert all(set(station["models"]) == set(models.split(",")) for station in report["stations"])
    return loaded, [json.loads(station["errors"]["blas"]) for station in report["stations"]]


class TestStageImports:
    """Each stage loads only the layers it runs: scipy comes with the model stages."""

    def test_import_loads_no_scipy(self):
        out = run_fresh(f"import sys, aircast.cli; print({LOADED_SCIPY})")
        assert out == "[]\n"

    def test_ingest_and_trend_load_no_scipy(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--n-days", "30",
                     "--station", "Gitega", "--station", "Kiyovu"]) == 0
        code = (
            "import sys\n"
            "from aircast.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['ingest', '--out', out, '--input', out + '/simulated_readings.csv']) == 0\n"
            "assert main(['trend', '--out', out, '--workers', '2']) == 0\n"
            f"print({LOADED_SCIPY})\n"
        )
        assert run_fresh(code, str(tmp_path)).splitlines()[-1] == "[]"

    def test_only_a_pool_loads_concurrent_futures(self, tmp_path):
        """The pool machinery loads where a pool starts: not on import, nor
        for simulate or ingest, but for trend on two stations with two workers."""
        loaded_pool = (
            "'pool:', [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]"
        )
        code = (
            "import sys\n"
            "from aircast.cli import main\n"
            f"print({loaded_pool})\n"
            "out = sys.argv[1]\n"
            "assert main(['simulate', '--out', out, '--n-days', '30',\n"
            "             '--station', 'Gitega', '--station', 'Kiyovu']) == 0\n"
            "assert main(['ingest', '--out', out, '--input', out + '/simulated_readings.csv']) == 0\n"
            f"print({loaded_pool})\n"
            "assert main(['trend', '--out', out, '--workers', '2']) == 0\n"
            f"print({loaded_pool})\n"
        )
        lines = run_fresh(code, str(tmp_path)).splitlines()
        assert [line for line in lines if line.startswith("pool:")] == [
            "pool: []", "pool: []", "pool: ['concurrent.futures', 'multiprocessing']",
        ]

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    @pytest.mark.parametrize("models, loaded", [
        (["--models", "ann"], []),
        (["--models", "gp"], ["scipy", "scipy.linalg"]),
        (["--models", "arima"], ["scipy", "scipy.linalg", "scipy.optimize"]),
        ([], ["scipy", "scipy.linalg", "scipy.optimize"]),
    ], ids=["ann", "gp", "arima", "default"])
    def test_model_stages_load_only_the_layers_of_their_models(self, pipeline_out, tmp_path,
                                                              command, models, loaded):
        """Of scipy and the subpackages the model layers use, exactly ``loaded``
        (no ``scipy`` means no ``scipy*`` module at all): ARIMA's residual
        filter is a LAPACK solve, so no model stage loads scipy.signal."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        code = (
            "import sys\n"
            "from aircast.cli import main\n"
            f"assert main([{command!r}, '--out', sys.argv[1], *{models!r}, "
            "'--station', 'Gitega', '--arima-grid', '1,0,1', '--workers', '1']) == 0\n"
            "print([name for name in ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.signal')\n"
            "       if name in sys.modules])\n"
        )
        assert run_fresh(code, str(out)).splitlines()[-1] == repr(loaded)

    def test_simulate_loads_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from aircast.cli import main\n"
            "assert main(['simulate', '--out', sys.argv[1], '--n-days', '30']) == 0\n"
            f"print({LOADED_SCIPY})\n"
        )
        assert run_fresh(code, str(tmp_path / "out")).splitlines()[-1] == "[]"

    def test_bad_arima_grid_exits_2_before_loading_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from aircast.cli import main\n"
            "assert main(['evaluate', '--out', sys.argv[1], '--arima-grid', '1,3,1']) == 2\n"
            f"print({LOADED_SCIPY})\n"
        )
        assert run_fresh(code, str(tmp_path / "out")).splitlines()[-1] == "[]"
        assert not (tmp_path / "out").exists()

    def test_spawned_model_stage_workers_pin_every_blas(self, pipeline_out, tmp_path):
        """A worker that does not fork loads the parent's model layers before
        it pins, so scipy's BLAS, which loads with the gp and arima layers, runs
        on one thread too."""
        loaded, workers = stage_worker_blas(pipeline_out, tmp_path, "spawn", "arima,ann,gp")
        assert loaded >= 1
        assert workers == [[True, [1] * loaded]] * 2

    @pytest.mark.parametrize("start, models", [
        ("fork", "arima"), ("fork", "ann"), ("fork", "gp"), ("spawn", "ann"), ("spawn", "gp"),
        ("forkserver", "arima"), ("forkserver", "ann"), ("forkserver", "gp"),
    ])  # spawned workers of all three: the test above
    def test_model_stage_workers_pin_every_blas(self, pipeline_out, tmp_path, start, models):
        """The parent loads the layers of the models named before the pool pins
        and forks, and a spawned or forkserver worker (forkserver is Linux's
        default from Python 3.14) loads the same ones before it pins."""
        if start not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start} start method here")
        loaded, workers = stage_worker_blas(pipeline_out, tmp_path, start, models)
        assert loaded >= 1
        assert workers == [[models != "ann", [1] * loaded]] * 2


class TestStationFilter:
    @pytest.mark.parametrize("command, extra, done", [
        ("ingest", ["--input", "simulated_readings.csv"], "wrote 2 series files"),
        ("trend", ["--workers", "1"], "wrote analyses for 1 stations"),
        ("evaluate", ["--models", "arima", *FAST_EVAL], "wrote comparison for 1 stations"),
        ("simulate", ["--n-days", "80"], "(80 rows, 1 stations)"),
        ("forecast", ["--models", "arima", *FAST_EVAL], "wrote forecasts for 1 stations"),
    ])
    def test_station_named_twice_runs_once(self, pipeline_out, tmp_path, capsys, monkeypatch,
                                           command, extra, done):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        monkeypatch.chdir(out)
        assert main([command, "--out", str(out), "--station", "Gitega",
                     "--station", "GITEGA", *extra]) == 0
        assert done in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["", " "], ids=["empty", "blank"])
    @pytest.mark.parametrize("command", ["trend", "forecast", "evaluate", "simulate"])
    def test_blank_station_is_schema_error_before_any_output(self, tmp_path, capsys, command,
                                                            name):
        assert_refused(capsys, tmp_path / "out", command, "--station", "Gitega", "--station", name,
                       reason="argument --station: station name must be non-empty")


class TestHygiene:
    def test_writes_stay_inside_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        assert main(["simulate", "--out", str(out), "--n-days", "20",
                     "--station", "Gitega"]) == 0
        assert main(["ingest", "--out", str(out), "--input",
                     str(out / "simulated_readings.csv")]) == 0
        assert list(workdir.iterdir()) == []

    def test_readme_names_the_parsers_flags(self):
        # pip's --no-build-isolation is the one README flag that is not aircast's
        (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            flag
            for command in commands.choices.values()
            for action in command._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
        assert sorted(parsed - named) == [], "flags the README never names"
        assert sorted(named - parsed) == [], "README flags no command takes"
