"""Tests for the benchmark's own code: python3 -m pytest perfbench -q

They run the real ``aircast`` program on tiny generated inputs, so they need
the repository's ``src/`` next to this directory.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import gen  # noqa: E402
import hostprobe  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

TINY_DAYS = 30


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    outputs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        folder = tmp_path / name
        folder.mkdir()
        expected = gen.GENERATORS[workload](seed, folder, n_days=TINY_DAYS)
        outputs.append(((folder / "readings.csv").read_bytes(), expected))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0]


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_expected_counts_match_a_real_ingest(tmp_path, workload):
    from aircast import cli

    expected = gen.GENERATORS[workload](3, tmp_path, n_days=TINY_DAYS)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["ingest", "--out", str(out), "--input", str(tmp_path / "readings.csv")])
    assert code == 0
    result = bench.Outcome()
    bench._check_ingest(out, expected, result)
    assert result.problems == []
    if workload == "hourly-ingest":
        assert set(expected["rejects"]) == set(gen.REJECT_ROWS)


def test_self_time_subtracts_only_what_direct_children_cover():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 3.0, 0, "r"),
        Span(2, "b", 2.0, 5.0, 0, "r"),  # overlaps a: together they cover 1..5
        Span(3, "c", 8.0, 12.0, 0, "r"),  # only 8..10 lies inside root
        Span(4, "a.child", 1.5, 2.5, 1, "r"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_originals():
    ticks = iter(range(100))
    tracer = Tracer("run", clock=lambda: float(next(ticks)))

    layer = types.SimpleNamespace()
    layer.inner = lambda x: x + 1
    layer.outer = lambda x: layer.inner(x) * 2
    original = layer.inner

    tracer.patch(layer, "inner", "inner")
    tracer.patch(layer, "outer", "outer", lambda counts, a, k, r, e: counts.update(out=r))
    assert layer.outer(1) == 4
    tracer.restore()
    assert layer.inner is original

    (outer,) = tracer.named("outer")
    (inner,) = tracer.named("inner")
    assert inner.parent == outer.sid and outer.parent is None
    assert tracer.counts["out"] == 4
    calls, total, own = tracer.table()["outer"]
    assert (calls, total, own) == (1, 3.0, 2.0)


def test_failed_stage_fails_exactly_its_operations(tmp_path):
    # 110 days of 15-minute readings give 2,640 hourly points, so the train
    # split passes the exact GP's 2000-point cap and `evaluate` exits 1.
    expected = gen.hourly_models(5, tmp_path, n_days=110)
    stages = (bench.Stage("ingest"), bench.Stage("evaluate", ("gp",), "hourly"))
    runner = bench.ProcessRunner()
    out = tmp_path / "out"
    out.mkdir()
    runs = []
    for stage in stages:
        runs.append(runner.run(stage, out, tmp_path / "readings.csv", 1, tmp_path / "logs"))
        bench.settle(out, stage)
    assert [r.returncode for r in runs] == [0, 1]
    result = bench.check_pass(out, [(r.stage, r.returncode) for r in runs], expected)
    assert (result.attempted, result.failed, result.problems) == (3, 1, [])


def test_bare_setup_only_imports_the_cli(tmp_path):
    run = bench.ProcessRunner().setup(tmp_path / "logs")
    assert run.returncode == 0
    assert 0 < run.setup_s < run.wall_s


def test_rerun_check_flags_a_changed_evaluation(tmp_path):
    first, second = bench.Outcome(evaluation_digest="x"), bench.Outcome(evaluation_digest="y")
    stored = tmp_path / "digests" / "w-1.sha256"
    assert bench.check_rerun([first], stored) == []
    assert bench.check_rerun([first], stored) == []
    assert bench.check_rerun([second], stored) != []


def test_host_slowdown_averages_the_samples_of_an_interval():
    probe = hostprobe.HostProbe()
    ref = hostprobe.REFERENCE_KERNEL_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 3 * ref), (3.0, 6 * ref)]
    assert probe.slowdown() == pytest.approx(3.0)
    assert probe.slowdown(0.5, 2.0) == pytest.approx(2.5)
    assert probe.slowdown(10.0, 11.0) == pytest.approx(3.0)  # no sample inside: the whole run


def test_host_probe_samples_until_stopped():
    deadline = time.monotonic() + 30
    with hostprobe.HostProbe(period_s=0.01) as probe:
        while len(probe.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    taken = len(probe.samples)
    assert taken >= 3
    time.sleep(0.05)
    assert len(probe.samples) == taken
    assert probe.slowdown() > 0
