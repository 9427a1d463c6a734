"""A clock for timed spans that a shared machine's speed does not move.

Timed spans are read as the process's CPU time, so preemption does not
count. They are also scaled to a reference machine speed: on a virtual
machine whose cores are shared with other tenants, speed drifts by a fifth
or more within seconds, the same for any pure-Python loop, so a fixed
calibration loop that calls no flip code runs at least every
``RefClock.WINDOW_S``, and each span's seconds are scaled by ``REF_CAL_S``
over the mean of the loop's times before and after it. A faster flip reads
faster; a slower machine does not.

CPU time misses what the process waits for (a disk write, a lock, a
sleep) and whatever it hands to another process. So each span's raw wall
time is kept beside it, and the clock notes any span at whose end the
process had a second thread or a child process: CPU time would then no
longer read as the program's latency, and the run is not correct.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter, process_time

REF_CAL_S = 0.004

# allocation-heavy pure-Python encoding of a 60 kB document, like the engine
# config store's, plus a small loop of dict, heap and string work
_CAL_DOC = {
    f"e{i}": {f"u{j}": [{"compute": "max", "source": [f"bs{k}" for k in range(10)], "rate": 100.0}]
              for j in range(16)}
    for i in range(12)
}


def _calibration_loop(n: int = 300) -> int:
    heap, seen, acc = [], {}, 0
    for i in range(n):
        key = f"n{(i * 7919) % 997}"
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, ((i * 31) % 101, i, key))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc + len(json.dumps(_CAL_DOC, indent=2, sort_keys=True))


def calibrate() -> float:
    """Seconds of the faster of two calibration loops; a stall that hits
    one of them is not machine speed."""
    best = float("inf")
    for _ in range(2):
        start = process_time()
        _calibration_loop()
        best = min(best, process_time() - start)
    return best


def alone() -> bool:
    """True when the process has one thread and no child process."""
    if threading.active_count() > 1:
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class Series:
    """The spans timed into one sink: reference seconds and raw wall
    seconds, each divided by the span's ``per``."""

    def __init__(self):
        self.ref: list[float] = []
        self.wall: list[float] = []

    def clear(self) -> None:
        self.ref.clear()
        self.wall.clear()


class RefClock:
    """Times spans and hands each to its series in reference seconds once
    the calibration after it has run."""

    WINDOW_S = 0.3

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.alone = True
        # (series, CPU seconds since the last pause, per, reference seconds before it)
        self._pending: list[tuple[Series, float, int, float]] = []
        self._before = calibrate()
        self._since = perf_counter()
        self._start = self._done = self._paused = 0.0

    @contextmanager
    def timing(self, series: Series, per: int = 1, tight: bool = False):
        """Time the block; ``series`` receives its seconds / ``per``. A
        ``tight`` span is calibrated right before and right after, for a
        block that follows unrelated work, and may call ``pause``."""
        if tight:
            self.flush()
        if not self._pending and (tight or perf_counter() - self._since >= self.WINDOW_S):
            self._before = calibrate()
            self._since = perf_counter()
        self._done = self._paused = 0.0
        self._start, wall = process_time(), perf_counter()
        try:
            yield
        finally:
            cpu, wall = process_time() - self._start, perf_counter() - wall - self._paused
            self.alone &= alone()
            series.wall.append(wall / per)
            self._pending.append((series, cpu, per, self._done))
            if tight or perf_counter() - self._since >= self.WINDOW_S:
                self.flush()

    def pause(self) -> None:
        """Within a tight span, calibrate once a window has passed, outside
        the span's time, so that a span of seconds is scaled by the
        machine's speed in each window and not only at its two ends."""
        if perf_counter() - self._since < self.WINDOW_S:
            return
        raw, paused = process_time() - self._start, perf_counter()
        after = calibrate()
        ref = raw * 2 * REF_CAL_S / (self._before + after)
        self._done += ref
        self.raw_s += raw
        self.ref_s += ref
        self._before, self._since = after, perf_counter()
        self._paused += self._since - paused
        self._start = process_time()

    def flush(self) -> None:
        if not self._pending:
            return
        after = calibrate()
        factor = 2 * REF_CAL_S / (self._before + after)
        for series, raw, per, done in self._pending:
            series.ref.append((done + raw * factor) / per)
            self.raw_s += raw
            self.ref_s += raw * factor
        self._pending.clear()
        self._before = after
        self._since = perf_counter()
