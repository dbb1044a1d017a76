"""Host-speed calibration for the timed run.

A shared VM swings between speed regimes: the same pass over the same pool
can take 1.0 s or 2.2 s depending on what else the machine runs, with CPU
time equal to wall time, and the speed changes within a single operation.
So while the timed region runs, a timer interrupts the benchmark every
INTERVAL_S seconds to run a slice of a fixed interpretive loop (tuple-keyed
dicts, Fraction sums, integer arithmetic, a sort) and record its speed.  An
operation's time is its wall time minus the slices inside it, rescaled by the
loop's speed in the slices during and around it to what it would have been
with the loop at REFERENCE_SPEED.  The loop is benchmark code, so it is the
same on every commit being compared.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Loop units per second on an idle 2-vCPU x86-64 VM under CPython 3.11.
REFERENCE_SPEED = 5000.0
INTERVAL_S = 0.02
SLICE_S = 0.002


def _unit() -> int:
    table: dict[tuple, Fraction] = {}
    for i in range(40):
        key = (i % 7, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 11, 1 + i % 5)
    acc = 0
    for i in range(300):
        acc = (acc * 31 + i) % 1000003
    return len(sorted(table.items())) + acc


class HostSpeed:
    """Samples the loop's speed on a timer; use as a context manager around timed code."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.units: list[int] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        units = 0
        while True:
            _unit()
            units += 1
            end = time.perf_counter()
            if end - start >= SLICE_S:
                break
        self.starts.append(start)
        self.ends.append(end)
        self.units.append(units)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def rescale(self, start: float, end: float) -> float:
        """The work time in [start, end] at the reference speed.

        Slices that ran inside the interval are subtracted; the speed is the
        loop's over every slice within INTERVAL_S of the interval, or over the
        next slice when a long call into C delayed the timer past that window.
        """
        lo = bisect.bisect_left(self.ends, start - INTERVAL_S)
        hi = max(bisect.bisect_right(self.starts, end + INTERVAL_S), lo + 1)
        spans = list(zip(self.starts[lo:hi], self.ends[lo:hi]))
        inside = sum(e - s for s, e in spans if s >= start and e <= end)
        speed = sum(self.units[lo:hi]) / sum(e - s for s, e in spans)
        return (end - start - inside) * speed / REFERENCE_SPEED
