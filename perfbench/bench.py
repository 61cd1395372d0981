"""The aircast benchmark: workloads, timed and traced passes, output checks.

Start it through ``run.py``, which pins BLAS to one thread before numpy loads::

    python3 perfbench/run.py --workload daily-network --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's stages as a user does: one fresh
``aircast`` process per stage, back to back, one client in a closed loop,
until ``--seconds`` have passed (at least one pass). ``--trace 1`` runs the
stages once in this process with every layer's public functions wrapped in
spans, next to an untraced serial pass of the same stages. Either way the
outputs are checked, and the last line printed is the JSON result. README.md
lists every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from hostprobe import HostProbe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
#: Thread settings every program process gets, whatever the caller's shell has.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Explicit pool size for the timed passes (the 2-core machine the baseline was taken on).
WORKERS = 2
#: Processes per timed run that only import aircast.cli, before the first pass.
BARE_SETUPS = 2
ALL_MODELS = ("arima", "ann", "gp")
TABLE_LABELS = {"arima": "arima", "ann": "ann", "gp": "gpr"}
HORIZON = 14
#: The AR(1) station's one-step ARIMA RMSE must lie within this share of sigma.
AR1_TOLERANCE = 0.1


@dataclass(frozen=True)
class Stage:
    command: str  # ingest | trend | forecast | evaluate
    models: tuple[str, ...] = ()  # forecast/evaluate only; () means the CLI default
    granularity: str = "daily"

    @property
    def label(self) -> str:
        return "-".join((self.command, *self.models))

    @property
    def model_names(self) -> tuple[str, ...]:
        return self.models or ALL_MODELS

    def argv(self, out: Path, readings: Path, workers: int) -> list[str]:
        args = [self.command, "--out", str(out)]
        if self.command == "ingest":
            return args + ["--input", str(readings)]
        args += ["--workers", str(workers)]
        if self.command == "forecast":
            args += ["--horizon", str(HORIZON)]
        if self.granularity != "daily":
            args += ["--granularity", self.granularity]
        if self.models:
            args += ["--models", ",".join(self.models)]
        return args


# On hourly-models the exact GP refuses its 10,368 training points (more than
# its 2000-point cap), so `evaluate --models gp` exits 1 and counts as one
# failed operation per pass until that cap is lifted.
WORKLOADS: dict[str, tuple[Stage, ...]] = {
    "daily-network": (
        Stage("ingest"),
        Stage("trend"),
        Stage("forecast"),
        Stage("evaluate"),
    ),
    "hourly-ingest": (Stage("ingest"), Stage("trend")),
    "hourly-models": (
        Stage("ingest"),
        Stage("evaluate", ("arima",), "hourly"),
        Stage("evaluate", ("ann",), "hourly"),
        Stage("evaluate", ("gp",), "hourly"),
    ),
}
STAGE_COMMANDS = ("ingest", "trend", "forecast", "evaluate")

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def slug(station: str) -> str:
    # Written out rather than imported from aircast.cli, so that a change to
    # the documented output file names fails a check.
    return "".join(c if c.isalnum() else "_" for c in station.strip().lower())


# ---------------------------------------------------------------------------
# Stage processes


@dataclass
class StageRun:
    stage: Stage | None  # None for a bare set-up
    returncode: int
    wall_s: float
    setup_s: float | None  # spawn until `import aircast.cli` finished
    main_s: float | None  # time spent inside aircast.cli.main
    peak_rss_mb: float  # the stage process or any pool worker it waited for; 0 if killed
    started: float  # perf_counter when the process was spawned


class ProcessRunner:
    """Starts stage processes one at a time; once stopped, it starts no more."""

    def __init__(self) -> None:
        self.current: subprocess.Popen | None = None
        self.stopped = False

    def run(self, stage: Stage, out: Path, readings: Path, workers: int, logs: Path) -> StageRun:
        return self.spawn(stage, stage.label, stage.argv(out, readings, workers), logs)

    def setup(self, logs: Path) -> StageRun:
        """A bare set-up: a fresh interpreter that only imports aircast.cli."""
        return self.spawn(None, "setup", [], logs)

    def spawn(self, stage: Stage | None, label: str, args: list[str], logs: Path) -> StageRun:
        if self.stopped:
            raise RuntimeError("the benchmark is stopping")
        logs.mkdir(parents=True, exist_ok=True)
        record = logs / f"{label}.record"
        record.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "stage.py"), str(record), *args]
        with open(logs / f"{label}.log", "wb") as log:
            spawned = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=program_env(), cwd=ROOT,
                start_new_session=True,
            )
            self.current = proc
            try:
                proc.wait()
            except BaseException:
                self.stop()
                raise
            wall = time.perf_counter() - start
            self.current = None
        done = json.loads(record.read_text()) if record.exists() else {}
        return StageRun(
            stage=stage,
            returncode=proc.returncode,
            wall_s=wall,
            setup_s=done["imported"] - spawned if done else None,
            main_s=done.get("main_s"),
            peak_rss_mb=done.get("peak_rss_mb", 0.0),
            started=start,
        )

    def stop(self) -> None:
        self.stopped = True
        proc = self.current
        if proc is not None and proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        self.current = None


def settle(out: Path, stage: Stage) -> None:
    """Keep each evaluate stage's output apart, since every one writes evaluation/."""
    if stage.command == "evaluate" and (out / "evaluation").exists():
        shutil.rmtree(out / stage.label, ignore_errors=True)
        (out / "evaluation").rename(out / stage.label)


def run_processes(
    workload: str, out: Path, readings: Path, workers: int, runner: ProcessRunner
) -> list[StageRun]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runs = []
    for stage in WORKLOADS[workload]:
        runs.append(runner.run(stage, out, readings, workers, out.with_name(out.name + "-logs")))
        settle(out, stage)
    return runs


# ---------------------------------------------------------------------------
# Output checks and operation counts


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: model -> per-station holdout RMSE over the persistence RMSE
    rmse_rel: dict[str, list[float]] = field(default_factory=dict)
    evaluation_digest: str = ""

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def operations(stage: Stage, n_stations: int) -> int:
    """Ingest writes two series per station; trend analyses each station;
    forecast and evaluate produce one result per (station, model)."""
    if stage.command == "ingest":
        return 2 * n_stations
    if stage.command == "trend":
        return n_stations
    return n_stations * len(stage.model_names)


def _read_values(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(row[1]) for row in rows])


def _check_ingest(out: Path, expected: dict, result: Outcome) -> None:
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    rejects = Counter(r["reason"] for f in report["files"].values() for r in f["rejects"])
    if dict(rejects) != expected["rejects"]:
        result.problems.append(f"ingest rejects {dict(rejects)} != expected {expected['rejects']}")
    for key, want in (("rows_read", expected["rows"]), ("rows_accepted", expected["rows_accepted"])):
        if report[key] != want:
            result.problems.append(f"ingest {key} {report[key]} != expected {want}")
    seen = sorted(s.casefold() for s in report["stations_seen"])
    if seen != sorted(s.casefold() for s in expected["stations"]):
        result.problems.append(f"ingest stations_seen {report['stations_seen']}")
    for station in expected["stations"]:
        for granularity in ("hourly", "daily"):
            if not (out / "series" / f"{slug(station)}_{granularity}.csv").is_file():
                result.problems.append(f"no {granularity} series for {station}")


def _check_trend(out: Path, expected: dict, result: Outcome) -> None:
    summary = json.loads((out / "trend" / "summary.json").read_text(encoding="utf-8"))
    ranked = sorted(e["station"].casefold() for e in summary["station_ranking_by_median_hourly"])
    if ranked != sorted(s.casefold() for s in expected["stations"]):
        result.problems.append(f"trend ranking covers {ranked}")


def _check_forecast(out: Path, stage: Stage, expected: dict, result: Outcome) -> None:
    for station in expected["stations"]:
        for model in stage.model_names:
            if not (out / "forecast" / f"{slug(station)}_{model}_model.json").is_file():
                result.failed += 1
        track = out / "forecast" / f"{slug(station)}_forecast.csv"
        if not track.is_file():
            result.problems.append(f"no forecast track for {station}")
            continue
        with open(track, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != HORIZON + 1:
            result.problems.append(f"{track.name} has {len(rows) - 1} rows, want {HORIZON}")


def _check_evaluate(out: Path, stage: Stage, expected: dict, result: Outcome) -> None:
    folder = out / stage.label
    report = json.loads((folder / "evaluation_report.json").read_text(encoding="utf-8"))
    entries = {e["station"].casefold(): e for e in report["stations"]}
    labels = [TABLE_LABELS[m] for m in stage.model_names]
    header = ",".join(["station"] + [f"rmse_{x}" for x in labels] + [f"mae_{x}" for x in labels])
    with open(folder / "comparison.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    if ",".join(table[0]) != header:
        result.problems.append(f"{stage.label}: comparison header {table[0]}")
    if sorted(r[0].casefold() for r in table[1:]) != sorted(s.casefold() for s in expected["stations"]):
        result.problems.append(f"{stage.label}: comparison rows {[r[0] for r in table[1:]]}")

    for station in expected["stations"]:
        entry = entries.get(station.casefold())
        if entry is None:
            result.problems.append(f"{stage.label}: no report for {station}")
            continue
        values = _read_values(out / "series" / f"{slug(station)}_{stage.granularity}.csv")
        for model in stage.model_names:
            scored = entry["models"].get(model)
            if scored is None:
                result.failed += 1
                continue
            actuals = np.array(scored["actuals"])
            n_test = actuals.size
            if not np.array_equal(actuals, values[-n_test:]):
                result.problems.append(f"{stage.label}: {station} actuals are not the series tail")
                continue
            persistence = np.concatenate([values[-n_test - 1 : -n_test], actuals[:-1]])
            base = float(np.sqrt(np.mean((actuals - persistence) ** 2)))
            result.rmse_rel.setdefault(model, []).append(scored["rmse"] / base)
            if model == "arima" and station == expected.get("ar1_station"):
                sigma = expected["ar1_sigma"]
                if abs(scored["rmse"] - sigma) > AR1_TOLERANCE * sigma:
                    result.problems.append(
                        f"ARIMA RMSE {scored['rmse']:.4f} on AR(1) station {station} "
                        f"is not within {AR1_TOLERANCE:.0%} of sigma {sigma}"
                    )


def evaluation_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("evaluate*/**/*")):
        if path.is_file():
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_pass(out: Path, codes: list[tuple[Stage, int]], expected: dict) -> Outcome:
    """Count operations and check every output of one pass through the stages.

    A stage that exits non-zero fails every operation it owned; its outputs
    (and those of later stages that needed them) are not checked.
    """
    result = Outcome()
    n = len(expected["stations"])
    for stage, code in codes:
        ops = operations(stage, n)
        result.attempted += ops
        if code != 0:
            result.failed += ops
            continue
        try:
            if stage.command == "ingest":
                _check_ingest(out, expected, result)
            elif stage.command == "trend":
                _check_trend(out, expected, result)
            elif stage.command == "forecast":
                _check_forecast(out, stage, expected, result)
            else:
                _check_evaluate(out, stage, expected, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.problems.append(f"{stage.label}: unreadable output: {exc!r}")
    if any(stage.command == "evaluate" for stage, _ in codes):
        result.evaluation_digest = evaluation_digest(out)
    return result


def check_rerun(outcomes: list[Outcome], stored: Path) -> list[str]:
    """evaluation/ must be byte-identical across passes and runs of one seed.

    ``stored`` keeps the digest of the first run of the seed.
    """
    digests = {o.evaluation_digest for o in outcomes if o.evaluation_digest}
    if not digests:
        return []
    if stored.exists():
        digests.add(stored.read_text().strip())
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(sorted(digests)[0] + "\n")
    if len(digests) > 1:
        return [f"evaluation/ differs between runs of this seed: {sorted(digests)}"]
    return []


# ---------------------------------------------------------------------------
# Timed passes (--trace 0)


def timed_run(workload: str, seed: int, seconds: float, readings: Path, expected: dict):
    runner = ProcessRunner()
    runs_dir = WORK / "runs"
    setups: list[StageRun] = []
    passes: list[list[StageRun]] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    with HostProbe() as probe:
        try:
            # Bare set-ups, so that every workload has at least four set-up
            # samples per run (hourly-ingest starts only two stage processes).
            setups = [runner.setup(runs_dir / f"setup{i}") for i in range(BARE_SETUPS)]
            while not passes or time.perf_counter() - start < seconds:
                out = runs_dir / f"{workload}-{seed}-pass{len(passes)}"
                runs = run_processes(workload, out, readings, WORKERS, runner)
                outcomes.append(check_pass(out, [(r.stage, r.returncode) for r in runs], expected))
                passes.append(runs)
                if len(passes) > 1:
                    shutil.rmtree(out, ignore_errors=True)
        finally:
            runner.stop()

    def wall(runs: list[StageRun]) -> float:
        return sum(r.wall_s for r in runs)

    def adjusted(runs: list[StageRun]) -> float:
        """The pass's wall time over the host's slowdown while it ran."""
        return wall(runs) / probe.slowdown(runs[0].started, runs[-1].started + runs[-1].wall_s)

    def per_pass(command: str) -> float:
        return statistics.median(wall([r for r in runs if r.stage.command == command]) for runs in passes)

    processes = setups + [r for runs in passes for r in runs]
    setup_times = [r.setup_s for r in processes if r.setup_s is not None]
    # A set-up lasts about a second: the ten probe samples taken meanwhile
    # carry the host's second-to-second noise. So set-up is scaled by the
    # slowdown of the whole run.
    slowdown = probe.slowdown()
    metrics = {
        "setup_s": statistics.median(setup_times) / slowdown,
        "pipeline_s": statistics.median(adjusted(runs) for runs in passes),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in runs) for runs in passes),
    }
    commands = {stage.command for stage in WORKLOADS[workload]}
    shown = {"passes": len(passes), "setup_samples": len(setup_times), "probe_samples": len(probe.samples)}
    reported = {
        "pipeline_wall_s": (statistics.median(wall(runs) for runs in passes), "s"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "host_slowdown": (slowdown, "ratio"),
    }
    reported.update({f"{c}_s": (per_pass(c), "s") for c in STAGE_COMMANDS if c in commands})
    return metrics, shown, reported, outcomes


# ---------------------------------------------------------------------------
# Traced pass (--trace 1)

TREND_PROFILES = (
    "hour_of_day_profile",
    "day_of_week_profile",
    "calendar_daily_means",
    "seasonal_means",
    "who_exceedance",
)


def _count_rows(counts, args, kwargs, result, error) -> None:
    if result is not None:
        _, report = result
        counts["ingest.rows_read"] += report.rows_read
        counts["ingest.rows_rejected"] += len(report.rejects)


def _count_converged(counts, args, kwargs, result, error) -> None:
    counts["arima.fit_arima.converged"] += int(result is not None and result.converged)


def _count_nfev(counts, args, kwargs, result, error) -> None:
    if result is not None:
        counts["arima.objective_evals"] += int(result.nfev)


def _count_epochs(counts, args, kwargs, result, error) -> None:
    if result is not None:
        counts["ann.epochs"] += (args[4] if len(args) > 4 else kwargs["cfg"]).epochs


def _count_grid(counts, args, kwargs, result, error) -> None:
    counts["gp.grid_cells"] += len(args[2]) * len(args[3]) * len(args[4])


def _count_cholesky(counts, args, kwargs, result, error) -> None:
    counts["gp.cholesky.ok"] += int(error is None)


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from aircast import ann, arima, cli, evaluation, gp, ingest, trends

    sites = [
        (cli, "load_series_csv", "cli.load_series_csv", None),
        (cli, "write_table", "cli.write_table", None),
        (ingest, "parse_readings", "ingest.parse_readings", _count_rows),
        (cli, "build_station_series", "ingest.build_station_series", None),
        (cli, "resample_mean", "series.resample_mean", None),
        (cli, "interpolate_gaps", "series.interpolate_gaps", None),
        (evaluation, "append_observation", "series.append_observation", None),
        *[(trends, name, f"trends.{name}", None) for name in TREND_PROFILES],
        (arima, "select_order", "arima.select_order", None),
        (arima, "fit_arima", "arima.fit_arima", _count_converged),
        (arima, "minimize", "arima.minimize", _count_nfev),
        (arima, "forecast", "arima.forecast", None),
        (ann, "train", "ann.train", _count_epochs),
        (ann, "forward", "ann.forward", None),
        (gp, "fit_hyperparameters", "gp.fit_hyperparameters", _count_grid),
        (gp, "fit_gp", "gp.fit_gp", None),
        (gp, "cholesky", "gp.cholesky", _count_cholesky),
        (gp, "posterior", "gp.posterior", None),
        (evaluation, "rolling_one_step", "evaluation.rolling_one_step", None),
        (cli, "compare_models", "evaluation.compare_models", None),
    ]
    adapters = {"arima": evaluation.ArimaAdapter, "ann": evaluation.AnnAdapter, "gp": evaluation.GpAdapter}
    for model, adapter in adapters.items():
        sites.append((adapter, "fit", f"evaluation.fit.{model}", None))
        sites.append((adapter, "predict_one", f"evaluation.predict_one.{model}", None))
    for owner, attr, name, observe in sites:
        tracer.patch(owner, attr, name, observe)


def _main_in_process(argv: list[str], log) -> int:
    from aircast import cli

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except Exception:  # a stage that crashes fails its operations; the run goes on
            traceback.print_exc(file=log)
            return 1


def run_traced(workload: str, out: Path, readings: Path, tracer: Tracer) -> tuple[list[tuple[Stage, int]], float]:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    codes = []
    install_spans(tracer)
    start = time.perf_counter()
    try:
        with open(out.with_name(out.name + ".log"), "w", encoding="utf-8") as log:
            for stage in WORKLOADS[workload]:
                code = tracer.call(f"cli.{stage.command}", _main_in_process, stage.argv(out, readings, 1), log)
                codes.append((stage, code))
                settle(out, stage)
    finally:
        tracer.restore()
    return codes, time.perf_counter() - start


def layer_metrics(tracer: Tracer, serial: list[StageRun], result: Outcome, overhead: float) -> dict[str, float]:
    table = tracer.table()
    counts = tracer.counts

    def total(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return table.get(name, (0, 0.0, 0.0))[0]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    per_station = [span.duration for span in tracer.named("evaluation.compare_models")]
    m: dict[str, float] = {
        "cli.load_series_csv.s": total("cli.load_series_csv"),
        "cli.load_series_csv.calls": calls("cli.load_series_csv"),
        "cli.write_table.s": total("cli.write_table"),
    }
    for command in STAGE_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
        m[f"cli.{command}.peak_rss_mb"] = max(
            (r.peak_rss_mb for r in serial if r.stage.command == command), default=0.0
        )
    m.update({
        "ingest.parse_readings.s": total("ingest.parse_readings"),
        "ingest.parse_rows_per_s": ratio(counts["ingest.rows_read"], total("ingest.parse_readings")),
        "ingest.build_station_series.s": total("ingest.build_station_series"),
        "ingest.rows_rejected": counts["ingest.rows_rejected"],
        "series.resample_mean.s": total("series.resample_mean"),
        "series.interpolate_gaps.s": total("series.interpolate_gaps"),
        "series.append_observation.calls": calls("series.append_observation"),
        "series.append_observation.s": total("series.append_observation"),
        "trends.profiles.s": sum(total(f"trends.{name}") for name in TREND_PROFILES),
        "arima.select_order.s": total("arima.select_order"),
        "arima.fit_arima.calls": calls("arima.fit_arima"),
        "arima.fit_arima.converged_ratio": ratio(counts["arima.fit_arima.converged"], calls("arima.fit_arima")),
        "arima.objective_evals": counts["arima.objective_evals"],
        "arima.s_per_objective_eval": ratio(total("arima.minimize"), counts["arima.objective_evals"]),
        "arima.forecast.calls": calls("arima.forecast"),
        "arima.forecast.s": total("arima.forecast"),
        "ann.train.s": total("ann.train"),
        "ann.s_per_epoch": ratio(total("ann.train"), counts["ann.epochs"]),
        "ann.forward.calls": calls("ann.forward"),
        "ann.forward.s": total("ann.forward"),
        "gp.fit_hyperparameters.s": total("gp.fit_hyperparameters"),
        "gp.grid_cells": counts["gp.grid_cells"],
        "gp.fit_gp.calls": calls("gp.fit_gp"),
        "gp.step_s": ratio(total("evaluation.predict_one.gp"), calls("evaluation.predict_one.gp")),
        "gp.cholesky.calls": calls("gp.cholesky"),
        "gp.cholesky.ok_ratio": ratio(counts["gp.cholesky.ok"], calls("gp.cholesky")),
        "gp.posterior.s": total("gp.posterior"),
    })
    for model in ALL_MODELS:
        m[f"evaluation.fit_s.{model}"] = total(f"evaluation.fit.{model}")
        m[f"evaluation.predict_one_s.{model}"] = total(f"evaluation.predict_one.{model}")
    m["evaluation.rolling_one_step.self_s"] = table.get("evaluation.rolling_one_step", (0, 0.0, 0.0))[2]
    m["evaluation.compare_models.max_s"] = max(per_station, default=0.0)
    m["evaluation.compare_models.sum_s"] = sum(per_station)
    for model in ALL_MODELS:
        ratios = result.rmse_rel.get(model)
        m[f"evaluation.rmse_rel.{model}"] = statistics.fmean(ratios) if ratios else 0.0
    m["trace.overhead_ratio"] = overhead
    return m


COUNT_METRICS = {"ingest.rows_rejected", "arima.objective_evals", "gp.grid_cells"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNT_METRICS:
        return "count"
    if name.endswith("peak_rss_mb"):
        return "MB"
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith("ratio") or ".rmse_rel." in name:
        return "ratio"
    return "s"


def traced_run(workload: str, seed: int, readings: Path, expected: dict):
    """One traced in-process pass and, side by side, one untraced serial pass.

    Both passes are serial (``--workers 1``) and run at the same time, one
    core each on the 2-core baseline machine, so the overhead ratio compares
    them over the same minutes of the host. One after the other, the two
    passes of daily-network would take about 150 s, too close to the run's
    time limit.
    """
    runs_dir = WORK / "runs"
    runner = ProcessRunner()
    tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}")
    serial_out = runs_dir / f"{workload}-{seed}-serial"
    traced_out = runs_dir / f"{workload}-{seed}-traced"
    with ThreadPoolExecutor(max_workers=1) as pool:
        try:
            serial_future = pool.submit(run_processes, workload, serial_out, readings, 1, runner)
            codes, traced_wall = run_traced(workload, traced_out, readings, tracer)
            serial = serial_future.result()
        finally:
            runner.stop()
    serial_result = check_pass(serial_out, [(r.stage, r.returncode) for r in serial], expected)
    traced_result = check_pass(traced_out, codes, expected)
    serial_main = sum(r.main_s or r.wall_s for r in serial)
    metrics = layer_metrics(tracer, serial, traced_result, traced_wall / serial_main)
    trace_path = WORK / "traces" / f"{workload}-seed{seed}.json"
    tracer.dump(trace_path)
    shown = {"trace_file": str(trace_path.relative_to(ROOT)), "traced_wall_s": traced_wall,
             "serial_main_s": serial_main}
    return metrics, shown, [serial_result, traced_result], tracer


# ---------------------------------------------------------------------------
# Environment record


def _openblas_threads() -> dict[str, int]:
    """Threads each OpenBLAS loaded into this process will use (read from its own API)."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                found[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return found


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "aircast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_in_benchmark": _openblas_threads(),
        "program_thread_env": BLAS_PIN,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry point


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM takes the same way out as Ctrl-C, so the stage process running
    # at that moment, with its pool, is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "aircast" / "cli.py").is_file():
        print(f"benchmark: no aircast sources at {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aircast.cli

    if Path(aircast.cli.__file__).resolve().parent != (SRC / "aircast").resolve():
        print(f"benchmark: imported aircast from {aircast.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    unpinned = {lib: n for lib, n in env["blas_threads_in_benchmark"].items() if n != 1}
    if unpinned:
        print(f"benchmark: BLAS is not pinned to one thread: {unpinned}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK / "runs", ignore_errors=True)  # keep only this run's outputs
    readings, expected = gen.generate(args.workload, args.seed, WORK / "inputs")
    if args.trace:
        metrics, shown, outcomes, tracer = traced_run(args.workload, args.seed, readings, expected)
        units = {name: layer_unit(name) for name in metrics}
        reported: dict[str, tuple[float, str]] = {}
    else:
        metrics, shown, reported, outcomes = timed_run(
            args.workload, args.seed, args.seconds, readings, expected
        )
        units = END_TO_END_UNITS
        tracer = None
    total = Outcome()
    for outcome in outcomes:
        total.merge(outcome)
    # Keyed by the program's source too, so a change that alters the output on
    # purpose is compared only with runs of its own code.
    stored = WORK / "digests" / f"{args.workload}-{args.seed}-{env['src_sha256'][:16]}.sha256"
    total.problems += check_rerun(outcomes, stored)
    if not args.trace:
        for model, ratios in sorted(outcomes[0].rmse_rel.items()):
            reported[f"rmse_rel_{model}"] = (statistics.fmean(ratios), "ratio")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={_fmt(v)}" for k, v in shown.items()))
    if tracer is not None:
        print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, (calls, total_s, self_s) in tracer.table().items():
            print(f"{name:40s} {calls:8d} {total_s:10.4f} {self_s:10.4f}")
    for name, value in metrics.items():
        print(f"{name:40s} {_fmt(value):>14s} {units[name]}")
    for name, (value, unit) in reported.items():
        print(f"{name:40s} {_fmt(value):>14s} {unit}  (reported, not gated)")
    for problem in total.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "environment": env, "shown": shown, "reported": reported,
                                  "problems": total.problems}, indent=2) + "\n")
    print(json.dumps(result))
    return 0
