#!/usr/bin/env python3
"""Check that a change leaves every pipeline output as a base commit writes it.

Usage: python scripts/same_outputs.py [--base REF] [--expect GLOB ...]

It makes ``git archive`` copies of REF (default HEAD) and of the working tree
(tracked and untracked files that git does not ignore) under
``_same_outputs/``, which git ignores. It generates each run's readings once:
the demo's (``aircast simulate --seed 0``, from the base copy), and
daily-network and hourly-models seed 511 from ``perfbench/gen.py``, imported
as it is; hourly-models is also evaluated at ARIMA grid 3,1,3. Each side
then runs every stage of a run into the same ``--out`` path, with BLAS on
one thread, so paths recorded in the outputs agree.

The outputs are compared file by file, ignoring only each model file's
``fit_key`` line (the key hashes the source, so it changes with any edit).
Each differing file is printed with its first differing line and the largest
relative change among its numbers; a differing ``comparison.csv`` also gets
each station's and model's RMSE and MAE on both sides. Differing exit codes
count as a differing file, ``<run>/exit codes``. The exit code is 1 when a
file differs that no ``--expect`` glob (matched against ``<run>/<path under
--out>``, as in ``demo/evaluation/*``) names, and 0 otherwise.

Byte identity holds on one host: another CPU or BLAS may round differently.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "_same_outputs"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HORIZON = "14"

#: Each run: (its readings' generator, its stages after ingest).
RUNS: dict[str, tuple[str, list[list[str]]]] = {
    "demo": ("demo", [
        ["trend"],
        ["forecast", "--seed", "0", "--horizon", HORIZON],
        ["evaluate", "--seed", "0"],
    ]),
    "daily-network-511": ("daily-network", [
        ["trend"],
        ["forecast", "--horizon", HORIZON],
        ["evaluate"],
    ]),
    "hourly-models-511": ("hourly-models", [
        ["forecast", "--granularity", "hourly", "--models", "arima,ann", "--horizon", HORIZON],
        ["evaluate", "--granularity", "hourly", "--models", "arima,ann"],
    ]),
    "hourly-models-511-grid-3-1-3": ("hourly-models", [
        ["evaluate", "--granularity", "hourly", "--models", "arima,ann", "--arima-grid", "3,1,3"],
    ]),
}
_FIT_KEY = re.compile(r'^\s*"fit_key": ".*",?$')
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class Difference:
    path: str  # relative to the compared trees
    first_line: int | None  # 1-based; None when the file is on one side only
    base: str
    change: str
    max_relative: float | None  # over the aligned numbers of aligned lines

    def describe(self) -> str:
        if self.first_line is None:
            return f"{self.path}: {self.base or 'absent'} in base, {self.change or 'absent'} in change"
        rel = "" if self.max_relative is None else f"; largest relative change {self.max_relative:.3g}"
        return (f"{self.path}, line {self.first_line}{rel}\n"
                f"  base:   {self.base}\n  change: {self.change}")


def _compared_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not _FIT_KEY.match(line)]


def _max_relative(base: list[str], change: list[str]) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over numbers at the same place of
    the same line; None when no line pair holds numbers in the same count."""
    largest = None
    for old, new in zip(base, change):
        a, b = _NUMBER.findall(old), _NUMBER.findall(new)
        if len(a) != len(b):
            continue
        for x, y in zip(map(float, a), map(float, b)):
            rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
            largest = rel if largest is None else max(largest, rel)
    return largest


def compare_trees(base: Path, change: Path) -> list[Difference]:
    """Every file under ``base`` or ``change`` whose lines differ, outside
    ``fit_key`` lines, in path order."""
    names = sorted({
        path.relative_to(root).as_posix()
        for root in (base, change) for path in root.rglob("*") if path.is_file()
    })
    found = []
    for name in names:
        old, new = base / name, change / name
        if not (old.is_file() and new.is_file()):
            found.append(Difference(name, None, "present" if old.is_file() else "",
                                    "present" if new.is_file() else "", None))
            continue
        a, b = _compared_lines(old), _compared_lines(new)
        if a == b:
            continue
        line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        found.append(Difference(
            name, line + 1, a[line] if line < len(a) else "<end of file>",
            b[line] if line < len(b) else "<end of file>", _max_relative(a, b),
        ))
    return found


def comparison_scores(base: Path, change: Path) -> list[str]:
    """Each station's RMSE and MAE per model in two comparison.csv files, on
    both sides; ``*`` marks a cell that differs."""
    tables = []
    for path in (base, change):
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        tables.append({row[0]: dict(zip(header[1:], row[1:])) for row in rows})
    lines = []
    for station in sorted(set(tables[0]) | set(tables[1])):
        old, new = (table.get(station, {}) for table in tables)
        for column in sorted(set(old) | set(new)):
            a, b = old.get(column) or "-", new.get(column) or "-"
            lines.append(f"{'*' if a != b else ' '} {station} {column}: base {a}, change {b}")
    return lines


def unexpected(found: Sequence[Difference], expect: Sequence[str]) -> list[Difference]:
    return [d for d in found if not any(fnmatch.fnmatch(d.path, glob) for glob in expect)]


# ---------------------------------------------------------------------------
# Copies, inputs and runs


def _git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def _archive(tree: str, into: Path) -> None:
    shutil.rmtree(into, ignore_errors=True)
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", tree], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def working_tree() -> str:
    """A tree object of the working tree's files that git does not ignore,
    written through a scratch index so the real index is left alone."""
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def _aircast(side: Path, args: Sequence[str]) -> int:
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(side / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import sys; from aircast.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          stdout=subprocess.DEVNULL).returncode


def make_inputs(base: Path, inputs: Path) -> None:
    """Each run's generator's readings.csv under ``inputs/<generator>``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    for name in sorted({generator for generator, _ in RUNS.values()}):
        folder = inputs / name
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        if name == "demo":
            if _aircast(base, ["simulate", "--out", str(folder), "--seed", "0"]) != 0:
                raise RuntimeError("the base copy's simulate failed")
            (folder / "simulated_readings.csv").rename(folder / "readings.csv")
        else:
            gen.GENERATORS[name](511, folder)


def run_side(side: Path, run: str, readings: Path, out: Path, into: Path) -> list[int]:
    """Every stage of ``run`` by the copy ``side`` into ``out``, then moved to ``into``."""
    shutil.rmtree(out, ignore_errors=True)
    codes = [_aircast(side, ["ingest", "--out", str(out), "--input", str(readings)])]
    codes += [_aircast(side, [*stage[:1], "--out", str(out), "--workers", "2", *stage[1:]])
              for stage in RUNS[run][1]]
    shutil.rmtree(into, ignore_errors=True)
    into.parent.mkdir(parents=True, exist_ok=True)
    out.rename(into)
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the commit to compare against")
    parser.add_argument("--expect", action="append", default=[],
                        help="a glob of output paths allowed to differ (repeatable)")
    args = parser.parse_args(argv)

    sides = {"base": args.base, "change": working_tree()}
    for side, tree in sides.items():
        _archive(tree, WORK / side)
    make_inputs(WORK / "base", WORK / "inputs")

    found: list[Difference] = []
    for run in RUNS:
        readings = WORK / "inputs" / RUNS[run][0] / "readings.csv"
        codes = [run_side(WORK / side, run, readings, WORK / "out", WORK / "results" / side / run)
                 for side in sides]
        print(f"{run}: exit codes {codes[0]} (base), {codes[1]} (change)")
        if codes[0] != codes[1]:
            found.append(Difference(f"{run}/exit codes", 1, str(codes[0]), str(codes[1]), None))
        trees = [WORK / "results" / side / run for side in sides]
        found += [replace(d, path=f"{run}/{d.path}") for d in compare_trees(*trees)]
    for difference in found:
        print(difference.describe())
        run, *_ = difference.path.split("/")
        if difference.path.endswith("comparison.csv") and difference.first_line is not None:
            files = [WORK / "results" / side / run / "evaluation" / "comparison.csv" for side in sides]
            print("\n".join(comparison_scores(*files)))
    surprising = unexpected(found, args.expect)
    base_sha = _git("rev-parse", "--short", args.base)
    print(f"same_outputs: base {base_sha} against the working tree, runs {', '.join(RUNS)}: "
          f"{len(found)} files differ outside fit_key, {len(surprising)} not expected")
    return 1 if surprising else 0


if __name__ == "__main__":
    sys.exit(main())
