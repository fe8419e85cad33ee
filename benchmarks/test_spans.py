"""Arithmetic of the benchmark harness, checked on synthetic spans.

    python3 -m pytest benchmarks/test_spans.py
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, Span, failed_ratio, self_times, summarize  # noqa: E402


def span(sid, parent, start, end, thread=0):
    return Span(sid, f"s{sid}", parent, thread, 1, start, end)


def test_self_time_subtracts_nested_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 5.0), span(2, 1, 3.0, 4.0)]
    assert self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})


def test_sequential_children_and_gaps():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 3.0, 6.0),
             span(3, None, 12.0, 13.0)]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_overlapping_threaded_children_are_not_counted_twice():
    # a study waits while two pool threads overlap on [4, 6]
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0, thread=1),
             span(2, 0, 4.0, 9.0, thread=2)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 4.0, 2: 4.0})
    # the naive duration-minus-children would give the study 10 - 5 - 5 = 0
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_threaded_grandchildren_share_only_their_overlap():
    spans = [span(0, None, 0.0, 8.0), span(1, 0, 0.0, 8.0, thread=1),
             span(2, 1, 2.0, 4.0, thread=1), span(3, 0, 3.0, 5.0, thread=2)]
    selfs = self_times(spans)
    # [3, 4]: spans 2 and 3 run at once; [4, 5]: span 1 (its child ended) and span 3
    assert selfs == pytest.approx({0: 0.0, 1: 5.5, 2: 1.5, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(8.0)


def test_recorder_parents_pool_thread_spans_to_the_open_study_span():
    rec = Recorder()
    study = rec.open("study")
    barrier = threading.Barrier(2, timeout=5)

    def task(_):
        inner = rec.open("task")
        barrier.wait()  # both tasks are open at once
        rec.close(inner)

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(task, range(2)))
    rec.close(study)

    tasks = [s for s in rec.spans if s.name == "task"]
    assert [s.parent for s in tasks] == [study.id, study.id]
    assert len({s.thread for s in tasks}) == 2
    selfs = self_times(rec.spans, rec.events)
    assert sum(selfs.values()) == pytest.approx(study.end - study.start)
    assert selfs == pytest.approx(self_times(rec.spans))


def test_wrap_records_and_counts_even_on_error():
    rec = Recorder()
    seen = []
    ok = rec.wrap("ok", lambda x: 2 * x, on_return=lambda a, k, r: seen.append(r))
    bad = rec.wrap("bad", lambda: 1 / 0)
    assert ok(3) == 6
    with pytest.raises(ZeroDivisionError):
        bad()
    assert seen == [6]
    assert [s.name for s in rec.spans] == ["ok", "bad"]
    assert all(s.end is not None for s in rec.spans)


def test_summarize_gives_median_and_upper_sample():
    assert summarize([3.0]) == (3.0, 3.0)
    assert summarize([4.0, 1.0, 2.0]) == (2.0, 4.0)
    assert summarize([1.0, 2.0, 3.0, 10.0]) == (2.5, 10.0)
    with pytest.raises(ValueError):
        summarize([])


def test_failed_ratio_counts_every_failure_against_attempts():
    assert failed_ratio([None, None, None, None]) == (4, 0, 0.0)
    assert failed_ratio([None, "exit code 1", None, "no PASS verdict"]) == (4, 2, 0.5)
    assert failed_ratio([]) == (0, 0, 1.0)
