"""Whole-pipeline smoke runs: every stage on the simulated nine-station
roster, the README's demo, and 30 days of the benchmark's messy 15-minute
readings. Each sequence runs once, in a module-scoped fixture, and each test
checks one thing it wrote. A fixture keeps what a check reads at the point of
its sequence where a later stage would overwrite it."""

from __future__ import annotations

import collections
import csv
import importlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from aircast.ann import TrainConfig
from aircast.cli import main
from aircast.ingest import station_key

from conftest import SRC, strict_json

ROOT = Path(__file__).resolve().parent.parent


def run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def import_from(folder: Path, name: str):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(folder))
        return importlib.import_module(name)


@pytest.fixture(scope="module")
def console(tmp_path_factory) -> SimpleNamespace:
    """simulate 60 days; ingest in a fresh process; trend as CSV, as CSV again
    under a second ``--out`` and then as JSON; forecast; evaluate each model
    alone, keeping each comparison before the next overwrites it."""
    out = tmp_path_factory.mktemp("console")
    csv_out = tmp_path_factory.mktemp("console_csv")
    run("simulate", "--out", str(out), "--n-days", "60")
    # a ResourceWarning raised in a finalizer leaves the exit code at 0, and
    # only a fresh interpreter finalizes everything ingest opened
    ingest = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-m", "aircast.cli", "ingest",
         "--out", str(out), "--input", str(out / "simulated_readings.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert ingest.returncode == 0, ingest.stderr
    run("trend", "--out", str(out))
    csv_summary_size = (out / "trend" / "summary.json").stat().st_size
    shutil.copytree(out / "series", csv_out / "series")
    shutil.copy(out / "ingest_report.json", csv_out)
    run("trend", "--out", str(csv_out))
    run("trend", "--out", str(out), "--format", "json")
    run("forecast", "--out", str(out))
    comparisons = {}
    for model in ("ann", "gp", "arima"):
        run("evaluate", "--out", str(out), "--models", model)
        comparisons[model] = read_rows(out / "evaluation" / "comparison.csv")
    return SimpleNamespace(out=out, csv_out=csv_out, ingest_stderr=ingest.stderr,
                           csv_summary_size=csv_summary_size, comparisons=comparisons)


class TestConsoleSequence:
    def test_ingest_leaves_no_file_unclosed(self, console):
        assert "ResourceWarning" not in console.ingest_stderr, console.ingest_stderr

    def test_trend_writes_a_summary(self, console):
        assert console.csv_summary_size > 0

    def test_json_trend_lists_its_files_and_leaves_no_csv_table(self, console):
        """The five-number serializer as JSON: every listed file, one row per
        day, and no CSV table left behind by the first run."""
        trend, csv_trend = console.out / "trend", console.csv_out / "trend"
        summary = strict_json(trend / "summary.json")
        files = [Path(f) for s in summary["stations"].values() for f in s["files"]]
        assert files and all(f.suffix == ".json" and f.exists() for f in files), files
        assert sorted(trend.glob("*.csv")) == []
        calendars = sorted(trend.glob("*_calendar.json"))
        assert calendars
        for path in calendars:
            csv_rows = read_rows(csv_trend / path.with_suffix(".csv").name)
            assert len(strict_json(path)) == len(csv_rows), path

    def test_gp_forecast_means_and_variances_are_finite(self, console):
        """The GP's one-solve posterior on this scipy: finite means, finite
        non-negative variances in every forecast table."""
        tables = sorted((console.out / "forecast").glob("*_forecast.csv"))
        assert tables
        for path in tables:
            rows = read_rows(path)
            assert rows, path
            for row in rows:
                mean, variance = float(row["gp"]), float(row["gp_variance"])
                assert math.isfinite(mean) and math.isfinite(variance) and variance >= 0, (
                    path, row)

    def test_ann_training_record_reads_off_its_curves(self, console):
        """The kept iteration within the iteration cap, one finite loss per
        iteration run on both curves (entry 0 is the initial weights'), and
        the losses kept read off the curves."""
        cap = TrainConfig().epochs
        models = sorted((console.out / "forecast").glob("*_ann_model.json"))
        assert models
        for path in models:
            model = strict_json(path)
            fit, held = model["fit_loss_curve"], model["validation_loss_curve"]
            kept = model["kept_iteration"]
            assert 1 <= len(fit) == len(held) <= cap + 1, (path, len(fit), len(held))
            assert all(math.isfinite(loss) for loss in fit + held), path
            assert 0 <= kept < len(held), (path, kept)
            assert model["validation_loss"] == held[kept], path
            assert model["train_loss"] == fit[kept], path

    def test_gp_evaluation_scores_every_station(self, console):
        """The GP's eigendecomposition search and the fit reuse, on this scipy."""
        rows = console.comparisons["gp"]
        assert rows and all(row["rmse_gpr"] for row in rows), rows

    def test_arima_evaluation_writes_a_comparison(self, console):
        assert console.comparisons["arima"]

    def test_every_json_parses_strictly(self, console):
        """No NaN or Infinity token in any JSON the stages wrote."""
        paths = sorted(console.out.rglob("*.json"))
        assert paths
        for path in paths:
            strict_json(path)


def test_readme_demo_runs(tmp_path):
    """README's quick-start demo: all four stages on a short simulated network."""
    run_pipeline = import_from(ROOT / "scripts", "run_pipeline")
    assert run_pipeline.run([str(tmp_path / "demo"), "--n-days", "120"]) == 0


@pytest.fixture(scope="module")
def hourly(tmp_path_factory) -> SimpleNamespace:
    """The benchmark's input generator, imported and not run as a workload:
    30 days of 9 stations with mixed spellings and offsets, duplicates, gaps,
    every reject reason and 3 rows over csv's field size limit, through
    ingest, trend and an hourly evaluate of ARIMA and the ANN."""
    gen = import_from(ROOT / "perfbench", "gen")
    out = tmp_path_factory.mktemp("hourly")
    expected = gen.hourly_ingest(1, out, n_days=30)
    run("ingest", "--out", str(out), "--input", str(out / "readings.csv"))
    run("trend", "--out", str(out))
    run("evaluate", "--out", str(out), "--granularity", "hourly", "--models", "arima,ann")
    return SimpleNamespace(out=out, expected=expected)


class TestHourlySequence:
    def test_trend_writes_a_summary(self, hourly):
        assert (hourly.out / "trend" / "summary.json").stat().st_size > 0

    def test_every_row_read_and_each_reject_under_its_reason(self, hourly):
        expected = hourly.expected
        report = strict_json(hourly.out / "ingest_report.json")
        assert report["rows_read"] == expected["rows"]
        assert report["rows_accepted"] == expected["rows_accepted"]
        (only,) = report["files"].values()
        rejects = collections.Counter(reject["reason"] for reject in only["rejects"])
        assert rejects == expected["rejects"]
        # the first spelling seen names a station, so stations compare by key
        keys = sorted(map(station_key, report["stations_seen"]))
        assert keys == sorted(map(station_key, expected["stations"])), report["stations_seen"]

    def test_comparison_has_a_finite_arima_and_ann_rmse_per_station(self, hourly):
        rows = read_rows(hourly.out / "evaluation" / "comparison.csv")
        keys = sorted(station_key(row["station"]) for row in rows)
        assert keys == sorted(map(station_key, hourly.expected["stations"])), keys
        for row in rows:
            for column in ("rmse_arima", "rmse_ann"):
                assert math.isfinite(float(row[column])), (row["station"], column, row[column])
