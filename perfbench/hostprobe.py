"""Host speed probe: how fast this machine's CPU runs while a pass is timed.

On a virtual machine shared with other tenants the speed of a vCPU moves by
up to half from one second to the next, and its slow and fast phases last
longer than a run. CPU time moves with wall time there,
so neither of them alone tells a slower program from a slower host.

A ``HostProbe`` runs a fixed kernel of a few milliseconds every
``period_s`` on each vCPU, from one thread per vCPU of the benchmark
process pinned to it, while the stage processes run, and records the
kernel's thread CPU time. Thread CPU time leaves out the time the probe
waits for its vCPU, so a busy program does not make the probe slower; a
slow host does. A probe on every vCPU also samples the one a single stage
process runs on, which an unpinned probe avoids because the scheduler puts
it on an idle vCPU. The mean kernel cost over an interval, over
``REFERENCE_KERNEL_S``, is the host's slowdown in that interval.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Kernel cost on the machine the baseline was taken on, in its fast state.
#: It only fixes the scale of the adjusted times; runs compare with each
#: other through it unchanged.
REFERENCE_KERNEL_S = 0.0035

_LINES = [f"Station {i % 9},2021-01-{1 + i % 28:02d}T{i % 24:02d}:15:00+02:00,PM25,{i * 0.37:.2f}"
          for i in range(400)]
_MATRIX = np.linspace(-1.0, 1.0, 1600).reshape(40, 40)


def kernel() -> float:
    """A fixed mix of what the program spends its time on: parsing CSV text
    in Python, and small numpy products."""
    acc = 0.0
    for _ in range(7):
        for line in _LINES:
            station, stamp, _pollutant, value = line.split(",")
            acc += float(value) + len(station.strip().casefold()) + int(stamp[11:13])
        for _ in range(20):
            acc += float((_MATRIX @ _MATRIX).trace())
    return acc


class HostProbe:
    """Samples the kernel's cost on every vCPU, from entering the context until leaving it."""

    def __init__(self, period_s: float = 0.2) -> None:
        self.period_s = period_s
        #: (perf_counter at the sample's start, kernel thread CPU seconds)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu, i / len(cpus)), name=f"host-probe-{cpu}", daemon=True)
            for i, cpu in enumerate(cpus)
        ]

    def __enter__(self) -> "HostProbe":
        kernel()  # warm: first-call costs are not the host's speed
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _loop(self, cpu: int, phase: float) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
        # Staggered, so that the threads do not wait for each other's lock.
        if self._stop.wait(self.period_s * phase):
            return
        while not self._stop.wait(self.period_s):
            start = time.perf_counter()
            used = time.thread_time()
            kernel()
            self.samples.append((start, time.thread_time() - used))

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Mean kernel cost of the samples taken in [start, end] (all samples
        when no bounds are given, or when none fall inside) over the reference."""
        costs = [c for t, c in self.samples
                 if (start is None or t >= start) and (end is None or t <= end)]
        if not costs:
            costs = [c for _, c in self.samples]
        if not costs:
            raise RuntimeError("the host probe took no sample")
        return statistics.fmean(costs) / REFERENCE_KERNEL_S
