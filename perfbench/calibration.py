"""Scaling measured times to a reference machine speed.

On a shared host, contention slows all code by up to about 1.7x for
seconds to minutes at a time, so raw rates of identical runs spread by
20-35%.  The benchmark therefore times a fixed pure-Python loop next to
the measured work and scales each interval by it:

    seconds at reference speed = seconds * CAL_REF_S / calibration

CAL_REF_S is the loop's time in a quiet phase on a 2.1 GHz 2-vCPU VM
under CPython 3.11, so on a quiet machine of that kind scaled rates read
like wall-clock rates.
"""

from __future__ import annotations

import statistics
import time

CAL_LOOPS = 20_000
CAL_REF_S = 0.8e-3


def calibrate() -> float:
    """Seconds this process needs right now for a fixed pure-Python loop."""
    t = time.perf_counter()
    total = 0
    for j in range(CAL_LOOPS):
        total += j & 7
    return time.perf_counter() - t


def at_ref(seconds: float, cals: list[float]) -> float:
    """``seconds`` scaled by calibrations taken around the interval."""
    return seconds * CAL_REF_S / statistics.median(cals)


class Intervals:
    """Sums of interval times, as measured and at reference speed.  Call
    ``add`` right after each interval: it calibrates, and scales the
    interval by the calibrations just before and just after it."""

    def __init__(self) -> None:
        self.seconds = self.ref_seconds = 0.0
        self._cal = calibrate()

    def add(self, seconds: float) -> None:
        after = calibrate()
        self.seconds += seconds
        self.ref_seconds += at_ref(seconds, [self._cal, after])
        self._cal = after
