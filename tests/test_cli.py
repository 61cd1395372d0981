from __future__ import annotations

import collections
import csv
import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import aircast
from aircast import ann, arima, gp
from aircast.cli import (
    _openblas_thread_controls,
    load_series_csv,
    main,
    single_blas_thread,
    write_series_csv,
)
from aircast.errors import SchemaError
from aircast.evaluation import AnnAdapter, ArimaAdapter, GpAdapter
from aircast.ingest import station_key
from aircast.series import Granularity, TimeSeries

from conftest import BASE_EPOCH

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

    def test_nonstationary_override_rejected(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--beta", "1.1"]) == 2

    @pytest.mark.parametrize("flag", ["--beta=0.5,x", "--theta=abc"])
    def test_unparseable_override_rejected(self, tmp_path, capsys, flag):
        assert main(["simulate", "--out", str(tmp_path), flag]) == 2
        assert "simulate: invalid parameters" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--out", str(out), "--input", str(src), "--pollutant", "O3"])
        assert exit_info.value.code == 2
        assert "{PM25,PM10,SO2,NO2,CO}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", [
        "--min-coverage=1.5", "--min-coverage=-0.1", "--min-coverage=nan",
        "--station=", "--station= ",
    ])
    def test_bad_argument_is_schema_error_before_any_output(self, tmp_path, flag):
        src = tmp_path / "readings.csv"
        src.write_text(self.CSV, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--out", str(out), "--input", str(src), flag]) == 2
        assert not out.exists()

    def test_missing_input_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "--input" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", [
        "--who-threshold=nan", "--who-threshold=inf", "--who-threshold=-inf",
    ])
    def test_bad_argument_is_schema_error_before_any_output(self, pipeline_out, tmp_path,
                                                            capsys, flag):
        out = fresh_out(pipeline_out, tmp_path / "out")
        assert main(["trend", "--out", str(out), "--workers", "1", flag]) == 2
        assert capsys.readouterr().err == "trend: --who-threshold must be finite\n"
        assert sorted(path.name for path in out.iterdir()) == ["ingest_report.json", "series"]

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

    def test_horizon_zero_rejected(self, pipeline_out):
        assert main([
            "forecast", "--out", str(pipeline_out), "--horizon", "0", *FAST_EVAL,
        ]) == 2

    def test_unknown_model_rejected(self, pipeline_out):
        assert main([
            "forecast", "--out", str(pipeline_out), "--models", "prophet", *FAST_EVAL,
        ]) == 2


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


BAD_ARIMA_GRIDS = ["1,2", "1,0,1,1", "a,0,0", "1.5,0,0", "11,0,0", "1,3,1", "1,0,11", "-1,0,1"]
BAD_OTHER_MODEL_FLAGS = ["--holdout=abc", "--holdout=0", "--holdout=1.5", "--models=prophet"]


class TestForecasterContract:
    """`forecast` and `evaluate` build and fit the same forecasters."""

    @pytest.mark.parametrize("command", ["forecast", "evaluate"])
    @pytest.mark.parametrize(
        "flag",
        [f"--arima-grid={grid}" for grid in BAD_ARIMA_GRIDS] + BAD_OTHER_MODEL_FLAGS,
        ids=BAD_ARIMA_GRIDS + [flag.lstrip("-") for flag in BAD_OTHER_MODEL_FLAGS],
    )
    def test_bad_arima_grid_is_schema_error(self, tmp_path, command, flag):
        """Any bad model flag, the ARIMA grid among them, exits 2."""
        # an empty --out would exit 3 at the station lookup: 2 means it came first
        assert main([command, "--out", str(tmp_path), flag]) == 2

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
        assert main(["evaluate", "--out", str(tmp_path), f"--holdout={holdout}"]) == 2
        assert capsys.readouterr().err == f"evaluate: {message}\n"

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

    @pytest.mark.parametrize("damage, damaged, events", [
        *(pytest.param(damage, MODELS, [(name, "fit") for name in MODELS], id=damage)
          for damage in ("other key", "truncated", "no key", "not an object")),
        pytest.param("refused by load", ("ann",),
                     [("ann", "load"), ("ann", "fit"), ("arima", "load"), ("gp", "load")],
                     id="refused by load"),
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
            elif damage == "refused by load":
                stored["window"] = 6  # the key still matches; the layer sizes do not
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


class TestSeriesFile:
    """write_series_csv and load_series_csv: a round trip, and the first row
    that does not read names the error."""

    def test_round_trip(self, tmp_path):
        at = BASE_EPOCH + 3600 * np.array([0, 1, 2, 5, 30_000], dtype=np.int64)
        series = TimeSeries(Granularity.HOURLY, at, np.array([1.5, 0.1 + 0.2, 1e-300, 7.0, 1e300]))
        path = tmp_path / "s.csv"
        write_series_csv(path, series)
        assert path.read_text(encoding="utf-8").splitlines()[:2] == [
            "timestamp,value", "2021-01-01T00:00:00+02:00,1.5"
        ]
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
    ])
    def test_first_bad_row_names_the_error(self, tmp_path, body, line, reason):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n" + body, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"line {line}: .*{reason}"):
            load_series_csv(path, Granularity.HOURLY)

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


def ingest_with_a_huge_gitega_reading(out: Path, index: int) -> Path:
    """Simulate 120 days of Gitega and Kiyovu, set Gitega's reading number
    ``index`` (in its own time order) to 1e200, and ingest."""
    assert main([
        "simulate", "--out", str(out), "--n-days", "120",
        "--station", "Gitega", "--station", "Kiyovu",
    ]) == 0
    path = out / "simulated_readings.csv"
    header, rows = read_csv(path)
    gitega = [row for row in rows if row[0] == "Gitega"]
    gitega[index][3] = "1e200"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert main(["ingest", "--out", str(out), "--input", str(path)]) == 0
    return out


def strict_json(path: Path):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


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


SRC = Path(aircast.__file__).resolve().parent.parent
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

    def test_spawned_model_stage_workers_pin_every_blas(self, tmp_path):
        """A worker that does not fork loads the parent's model layers before
        it pins, so scipy's BLAS, which loads with them, runs on one thread too."""
        (tmp_path / "blas_probe.py").write_text(
            "from aircast.cli import _openblas_thread_controls\n"
            "\n"
            "def thread_counts(task):\n"
            "    from aircast import evaluation  # as the model stages' station workers do\n"
            "    return [get() for get, _ in _openblas_thread_controls()]\n",
            encoding="utf-8",
        )
        code = (
            "import json, multiprocessing, sys\n"
            "from aircast import cli\n"
            "import blas_probe\n"
            "multiprocessing.set_start_method('spawn')\n"
            "args = cli.build_parser().parse_args(['evaluate', '--out', sys.argv[1]])\n"
            "assert cli._parse_model_flags(args)\n"
            "loaded = len(cli._openblas_thread_controls())\n"
            "print(json.dumps([loaded, cli._run_pool(blas_probe.thread_counts, [0, 1], 2)]))\n"
        )
        loaded, counts = json.loads(run_fresh(code, str(tmp_path), path=[tmp_path]))
        assert loaded >= 1
        assert counts == [[1] * loaded] * 2


class TestStationFilter:
    @pytest.mark.parametrize("command, extra, done", [
        ("ingest", ["--input", "simulated_readings.csv"], "wrote 2 series files"),
        ("trend", ["--workers", "1"], "wrote analyses for 1 stations"),
        ("evaluate", ["--models", "arima", *FAST_EVAL], "wrote comparison for 1 stations"),
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
    @pytest.mark.parametrize("command", ["trend", "forecast", "evaluate"])
    def test_blank_station_is_schema_error_before_any_output(self, pipeline_out, tmp_path,
                                                            capsys, command, name):
        out = fresh_out(pipeline_out, tmp_path / "out")
        assert main([command, "--out", str(out), "--station", "Gitega", "--station", name,
                     "--workers", "1"]) == 2
        assert capsys.readouterr().err == f"{command}: --station: station name must be non-empty\n"
        assert sorted(path.name for path in out.iterdir()) == ["ingest_report.json", "series"]


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

    def test_station_slug(self):
        assert station_key("Mount Kigali") == "mount_kigali"
        assert station_key("Gikondo Mburabuturo") == "gikondo_mburabuturo"
