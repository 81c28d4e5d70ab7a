"""Machine-speed calibration for the benchmark's clocks.

On a shared host the speed of one core drifts by tens of percent within
minutes, and a plain wall-clock time measures the neighbours as much as
the program.  A `Speed` runs a fixed calibration probe (pure-Python
`Fraction` arithmetic and dict updates, the kind of work voxfact's exact
scalars do) between operations, at most every `INTERVAL_S`, never inside
one.  `scaled(t0, dt)` converts a wall interval that started at `t0` into
reference seconds: ``dt * REF_PROBE_S / p``, where ``p`` is the median
duration of the two probes before and the two after ``t0``.  A reference
second is the time the interval would have taken had the probe run in
`REF_PROBE_S`, about its duration on an unloaded 2-CPU Xeon.

The probe uses only the standard library, so a change to voxfact cannot
change it; a program that does the same work in less time reads faster.
"""
from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 0.003
INTERVAL_S = 0.05


def _probe_work():
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = x * Fraction(i, 7 + i) + Fraction(1, i)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
        acc[i % 37] = acc.get(i % 37, 0) + x
    return acc


class Speed:
    """Probe times, and the conversion of wall intervals by them."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._due = 0.0
        self.probe()

    def probe(self):
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._due = t1 + INTERVAL_S

    def tick(self):
        """Probe if the last probe is more than `INTERVAL_S` old."""
        if perf_counter() >= self._due:
            self.probe()

    def scaled(self, t0, dt):
        """Reference seconds of a wall interval `dt` that began at `t0`."""
        i = bisect.bisect_right(self.starts, t0)
        window = self.durations[max(0, i - 2):i + 2]
        return dt * REF_PROBE_S / statistics.median(window)

    def median_probe_s(self):
        return statistics.median(self.durations)
