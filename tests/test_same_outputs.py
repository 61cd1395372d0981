"""`scripts/same_outputs.py` compares two output trees file by file,
ignoring only the model files' `fit_key`."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("same_outputs")


def write_tree(root: Path, fit_key: str, gitega_rmse: str) -> Path:
    (root / "forecast").mkdir(parents=True)
    (root / "evaluation").mkdir()
    model = {"order": {"p": 1, "d": 0, "q": 1}, "alpha": 0.25, "fit_key": fit_key}
    (root / "forecast" / "gitega_arima_model.json").write_text(json.dumps(model, indent=2) + "\n")
    (root / "evaluation" / "comparison.csv").write_text(
        "station,rmse_arima,mae_arima\n"
        f"Gitega,{gitega_rmse},0.75\n"
        "Rebero,2.5,2.0\n"
    )
    return root


def test_only_the_changed_cell_is_reported(same_outputs, tmp_path):
    base = write_tree(tmp_path / "base", "a" * 64, "1.0")
    change = write_tree(tmp_path / "change", "b" * 64, "1.5")

    (difference,) = same_outputs.compare_trees(base, change)
    assert difference.path == "evaluation/comparison.csv"
    assert (difference.first_line, difference.base, difference.change) == (
        2, "Gitega,1.0,0.75", "Gitega,1.5,0.75",
    )
    assert difference.max_relative == pytest.approx(0.5 / 1.5)
    assert same_outputs.comparison_scores(
        base / "evaluation" / "comparison.csv", change / "evaluation" / "comparison.csv"
    ) == [
        "  Gitega mae_arima: base 0.75, change 0.75",
        "* Gitega rmse_arima: base 1.0, change 1.5",
        "  Rebero mae_arima: base 2.0, change 2.0",
        "  Rebero rmse_arima: base 2.5, change 2.5",
    ]


def test_a_file_on_one_side_differs_and_expect_names_what_may(same_outputs, tmp_path):
    base = write_tree(tmp_path / "base", "a" * 64, "1.0")
    change = write_tree(tmp_path / "change", "a" * 64, "1.0")
    (change / "forecast" / "gitega_forecast.csv").write_text("date,actual,arima\n")

    found = same_outputs.compare_trees(base, change)
    assert [(d.path, d.first_line, d.base, d.change) for d in found] == [
        ("forecast/gitega_forecast.csv", None, "", "present"),
    ]
    assert same_outputs.unexpected(found, []) == found
    assert same_outputs.unexpected(found, ["forecast/*.csv"]) == []
    assert same_outputs.unexpected(found, ["evaluation/*"]) == found
