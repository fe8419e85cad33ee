"""In-memory span recorder and the arithmetic that turns spans into numbers.

A span is one call into a wrapped function: its name, the thread it ran on,
the span that caused it, the CLI invocation (request) it belongs to, and its
start and end.  Spans are kept in memory while the benchmark runs and written
out once at the end.

Self time is a span's share of wall-clock time.  At every instant the time is
split equally among the innermost open spans, those with no open child at that
instant.  A parent waiting on children in pool threads therefore gets none of
that interval, and two children running at once get half of it each, so self
times never count an interval twice and their sum is the time covered by the
root spans.  Without threads this is the span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    request: int
    start: float
    end: float | None = None


class Recorder:
    """Collects spans from any thread; children of pool threads attach to the main thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[tuple[float, bool, int]] = []  # (time, is_start, span id), in time order
        self.request = 0
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to whatever the submitting thread has open
                main_stack = self._stacks.get(self._main) or [None]
                parent = main_stack[-1] if thread != self._main else None
            span = Span(len(self.spans), name, parent, thread, self.request, time.perf_counter())
            self.spans.append(span)
            self.events.append((span.start, True, span.id))
            stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        with self._lock:
            span.end = time.perf_counter()
            self.events.append((span.end, False, span.id))
            self._stacks[span.thread].pop()

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(args, kwargs, result)`` counts work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def self_times(spans: list[Span], events=None) -> dict[int, float]:
    """Self time of every span by id, splitting concurrent time among innermost spans.

    ``events`` are (time, is_start, span id) in time order; they are derived
    from the spans when omitted.
    """
    if events is None:
        # at equal times ends go first; ids grow in opening order, so parents open
        # before their children and close after them
        events = sorted(
            [(s.start, True, s.id) for s in spans] + [(s.end, False, s.id) for s in spans],
            key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]),
        )
    by_id = {s.id: s for s in spans}
    out = {s.id: 0.0 for s in spans}
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    last = None
    for t, is_start, sid in events:
        if last is not None and innermost:
            share = (t - last) / len(innermost)
            for active in innermost:
                out[active] += share
        last = t
        parent = by_id[sid].parent
        if is_start:
            open_children[sid] = 0
            innermost.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            del open_children[sid]
            innermost.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return out


def summarize(values: list[float]) -> tuple[float, float]:
    """Median and maximum of a run's samples.

    A run holds a handful of cycles, too few for any percentile with ten
    samples beyond it, so the upper figure printed is the slowest sample.
    """
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), max(values)


def failed_ratio(outcomes: list[str | None]) -> tuple[int, int, float]:
    """(attempted, failed, ratio) from per-invocation outcomes; ``None`` means it passed."""
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is not None)
    return attempted, failed, failed / attempted if attempted else 1.0
