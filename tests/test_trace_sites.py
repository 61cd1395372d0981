"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps aircast's
functions and adapter methods by name; every one of them must still resolve.
Its output checks find each station's files by its own copy of the station
key rule, which must still name the files aircast writes."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from aircast import arima, cli, evaluation
from aircast.ingest import station_key

from conftest import daily_series

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("bench")


def test_install_spans_resolves_every_site_and_restores(bench):
    adapter = evaluation.ArimaAdapter(order=arima.ArimaOrder(1, 0, 0))
    series = daily_series([10.0, 12.0, 11.0, 13.0, 12.5, 11.5, 12.0, 13.5, 12.0, 11.0, 12.5, 13.0])

    tracer = bench.Tracer(run_id="sites")
    try:
        bench.install_spans(tracer)  # a name that no longer resolves raises here
        adapter.fit(series)
        adapter.predict_one(series, int(series.at[-1]) + 86_400)
    finally:
        tracer.restore()

    names = {span.name for span in tracer.spans}
    assert {
        "evaluation.fit.arima", "arima.fit_arima",
        "evaluation.predict_one.arima", "arima.forecast",
    } <= names
    assert evaluation.ArimaAdapter.predict_one is evaluation.Forecaster.predict_one
    assert not hasattr(evaluation.ArimaAdapter.fit, "__wrapped__")
    assert not hasattr(arima.fit_arima, "__wrapped__")


def test_ingest_sites_record_spans_and_row_counts(bench, tmp_path):
    src = tmp_path / "readings.csv"
    src.write_text(
        "station,timestamp,pollutant,value\n"
        + "".join(f"Gitega,2021-06-01T{h:02d}:00:00+02:00,PM25,{40 + h}.0\n" for h in range(24))
        + "Gitega,not a time,PM25,1.0\n",
        encoding="utf-8",
    )

    tracer = bench.Tracer(run_id="ingest-sites")
    try:
        bench.install_spans(tracer)
        assert cli.main(["ingest", "--out", str(tmp_path / "out"), "--input", str(src)]) == 0
    finally:
        tracer.restore()

    names = {span.name for span in tracer.spans}
    assert {"ingest.parse_readings", "ingest.build_station_series"} <= names
    assert tracer.counts["ingest.rows_read"] == 25
    assert tracer.counts["ingest.rows_rejected"] == 1


def test_every_site_records_a_span_through_the_pipeline(bench, tmp_path):
    """A refactor that routes a stage around a wrapped name would zero that
    layer's metrics; each site must see at least one call."""
    tracer = bench.Tracer(run_id="pipeline-sites")
    sites = []
    patch = tracer.patch

    def recording(owner, attr, name, observe=None):
        sites.append(name)
        patch(owner, attr, name, observe)

    tracer.patch = recording
    out = str(tmp_path)
    model_flags = ["--arima-grid", "1,0,1", "--workers", "1"]
    try:
        bench.install_spans(tracer)
        assert cli.main(["simulate", "--out", out, "--n-days", "120", "--station", "Gitega"]) == 0
        assert cli.main(["ingest", "--out", out, "--input", f"{out}/simulated_readings.csv"]) == 0
        assert cli.main(["trend", "--out", out, "--workers", "1"]) == 0
        assert cli.main(["forecast", "--out", out, *model_flags]) == 0
        assert cli.main(["evaluate", "--out", out, *model_flags]) == 0
    finally:
        tracer.restore()

    # only the Nelder–Mead fallback, which this data does not need, reaches arima.minimize
    expected = set(sites) - {"arima.minimize"}
    assert len(expected) == len(sites) - 1
    assert expected - {span.name for span in tracer.spans} == set()


def test_benchmark_file_names_are_station_keys(bench):
    gen = importlib.import_module("gen")
    for name in gen.STATIONS:
        for spelling in (name, name.upper(), name.lower()):
            assert bench.slug(spelling) == station_key(spelling)
