"""Speed calibration against a fixed reference loop.

The benchmark's host shares its cores and caches with other work, and the
same deterministic computation can take 20% longer from one minute to the
next.  To report times that reflect the program rather than the host's
momentary speed, a timer signal interrupts the run ten times a second and
times a fixed loop of scattered reads from a 1 MB table.  Each measured
interval is then divided by how slow the loop ran around it::

    calibrated = measured / mean(slowness of the samples nearby)
    slowness   = loop time / REFERENCE_S

so a calibrated time is the time the interval would have taken on a host
where the loop takes ``REFERENCE_S``.  The time spent in the signal handler
is left out of every measured interval.  The loop allocates no object that
the cyclic garbage collector tracks, so that no collection of the
benchmark's own heap lands inside a sample.

Over long runs of each workload in one process, this loop tracked the host
better than a loop of plain arithmetic: the spread between the quartiles of
pass times fell from 11-22% raw to about 5%, against 6-9% with arithmetic.
"""
from __future__ import annotations

import bisect
import signal
from array import array
from time import perf_counter

# About the fastest duration of the loop on a 2-core x86-64 host with
# CPython 3.11; it only fixes the scale of calibrated times.
REFERENCE_S = 0.0013
TABLE_SLOTS = 1 << 17  # 1 MB of 8-byte integers
READS = 6_000
INTERVAL_S = 0.1
WINDOW_S = 1.0


def reference_loop(table) -> int:
    s = 0
    j = 1
    mask = TABLE_SLOTS - 1
    for _ in range(READS):
        j = (j * 1103515245 + 12345) & mask
        s += table[j]
    return s


class Calibrator:
    """Samples the reference loop on a timer while the run measures."""

    def __init__(self):
        self.table = array("q", range(TABLE_SLOTS))
        self.times: list[float] = []  # start of each sample
        self.slowness: list[float] = []
        self.stolen = 0.0  # total time spent sampling
        self._old = None

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop(self.table)
        t1 = perf_counter()
        self.times.append(t0)
        self.slowness.append((t1 - t0) / REFERENCE_S)
        self.stolen += perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def warm_up(self, seconds: float) -> None:
        """Sample back to back, so that the first intervals have neighbours."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.sample()

    def calibrate(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` divided by the mean slowness within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.slowness[lo:hi] or self.slowness
        return seconds * len(near) / sum(near)
