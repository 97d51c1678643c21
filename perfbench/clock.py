"""Wall time corrected for the speed the machine gives this process.

On a shared machine the same pure-Python work can take twice as long from
one second to the next, with slow phases lasting many seconds, so raw wall
times of 10-30 s runs differ by about 30% between runs. While a workload
runs, a timer signal every PERIOD_S runs a fixed reference loop and records
how long it took. A measured interval is reported as

    calibrated = raw * mean(REF_NOMINAL_S / reference durations near it)

that is, in seconds at the speed where the reference loop takes
REF_NOMINAL_S (about its median on the 2-core machine the baseline was
measured on). On a steady machine calibrated time is raw time times a
constant, so it compares commits the same way wall time does. Raw times are
the interval minus the time spent in the signal handler, and are kept in
every run record next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import json
import signal
import time

PERIOD_S = 0.05
REF_NOMINAL_S = 0.0006
WINDOW_S = 0.25        # samples this close to an interval calibrate it
MIN_SAMPLES = 5


def _reference():
    """Interpreter arithmetic plus allocating and serialising floats: on
    the machine above this tracked the workloads' slow phases better than
    either part alone."""
    json.dumps([i * 0.5 for i in range(1000)])
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class Clock:
    """Context manager that samples the reference loop while it is open."""

    def __init__(self):
        self.starts = []   # handler entry times, increasing
        self.ends = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    now = staticmethod(time.perf_counter)

    def interval(self, a, b):
        """(raw, calibrated) seconds of the interval [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        handler = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        raw = (b - a) - handler
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if hi == lo:
            return raw, raw
        speed = sum(REF_NOMINAL_S / (self.ends[i] - self.starts[i])
                    for i in range(lo, hi)) / (hi - lo)
        return raw, raw * speed
