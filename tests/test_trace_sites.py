"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps aircast's
functions and adapter methods by name; every one of them must still resolve."""

from __future__ import annotations

import importlib
from pathlib import Path

from aircast import arima, evaluation

from conftest import daily_series

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_spans_resolves_every_site_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    tracing = importlib.import_module("tracing")
    adapter = evaluation.ArimaAdapter(order=arima.ArimaOrder(1, 0, 0))
    series = daily_series([10.0, 12.0, 11.0, 13.0, 12.5, 11.5, 12.0, 13.5, 12.0, 11.0, 12.5, 13.0])

    tracer = tracing.Tracer(run_id="sites")
    try:
        bench.install_spans(tracer)  # a name that no longer resolves raises here
        adapter.fit(series)
        adapter.predict_one(series)
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
