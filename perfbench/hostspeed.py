"""Host-speed sampling, for timing in reference seconds.

The host this benchmark was written on changes speed by up to 1.7x from
one second to the next, even within one request.  While a run measures,
a SIGALRM timer interrupts it every ``INTERVAL_S`` and the handler times
one round of a fixed pure-Python loop that does not use the library.

A timed interval's wall time, less the handler time spent inside it, is
scaled by ``REFERENCE_ROUND_S`` over the mean round time sampled within
``WINDOW_S`` of the interval.  A reference second is thus a second on a
host where one round takes 50 us when it interrupts other work.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
import statistics
import time
from time import perf_counter

INTERVAL_S = 0.005
WINDOW_S = 0.025
REFERENCE_ROUND_S = 50e-6


class _Space:
    # A miniature of the library's hot paths: method calls that validate
    # and compare points, inside generator expressions.
    __slots__ = ("index",)

    def __init__(self):
        self.index = {i: i for i in range(16)}

    def contains(self, x):
        return isinstance(x, (int, float)) and 0.0 <= x <= 1.0

    def require(self, x):
        if not self.contains(x):
            raise ValueError(x)
        return x

    def dist(self, x, y):
        self.require(x)
        self.require(y)
        return abs(x - y)


_SPACE = _Space()
_VALUES = tuple((i * 0.37) % 1.0 for i in range(16))


def calibration_round():
    """Fixed pure-Python work that does not use the library."""
    s, v = _SPACE, _VALUES
    close = all(s.dist(v[s.index[j]], v[s.index[k]]) <= 0.9 for j, k in itertools.combinations(range(8), 2))
    widest = max(s.dist(v[p], v[q]) for p in range(6) for q in range(p + 1, 8))
    return close, widest


class Sampler:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.ends = []  # perf_counter at the end of each sample
        self.rounds = []  # duration of each sample

    def _on_alarm(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection inside a sample would time the heap, not the host
        t0 = perf_counter()
        calibration_round()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.rounds.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            time.sleep(WINDOW_S)  # samples after the last interval
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start, end):
        """(wall seconds, reference seconds) of the interval [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest later one
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        inside = sum(
            d for t, d in zip(self.ends[lo:hi], self.rounds[lo:hi]) if start <= t - d and t <= end
        )
        wall = end - start - inside
        return wall, wall * REFERENCE_ROUND_S / statistics.fmean(self.rounds[lo:hi])
