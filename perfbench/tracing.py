"""In-memory spans around calls into aircast's modules, recorded from outside.

A :class:`Tracer` replaces a function at the place its caller looks it up
(for example ``aircast.cli.build_station_series``, which ``cmd_ingest`` reads
from its own module globals) with a wrapper that records a span: name, start,
end, parent span and run id. Wrappers keep a call stack, so a span's parent
is the traced call that was running when it started. Everything stays in
memory until :meth:`Tracer.dump`; :meth:`Tracer.restore` puts the originals
back.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its direct children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - _covered(children[span.sid], span.start, span.end)
        for span in spans
    }


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[Counter, tuple, dict, object, BaseException | None], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``observe(counts, args, kwargs, result, error)`` runs after each call
        (outside the span) to record counts such as optimizer evaluations.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result, error = None, None
            try:
                result = self.call(name, original, *args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if observe is not None:
                    observe(self.counts, args, kwargs, result, error)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), over every span name."""
        own = self_times(self.spans)
        rows: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            calls, total, self_s = rows.get(span.name, (0, 0.0, 0.0))
            rows[span.name] = (calls + 1, total + span.duration, self_s + own[span.sid])
        return dict(sorted(rows.items()))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "fields": ["sid", "name", "start", "end", "parent", "run_id"],
            "spans": [
                [s.sid, s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
