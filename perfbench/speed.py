"""Contention-adjusted timing.

The benchmark runs on shared hosts where identical work slows by up to 2x
for tens of seconds at a time.  The process cannot see it: no steal time
is reported, and CPU time slows with wall time.  A per-run minimum or
median cannot remove a slow phase that covers the whole run.

A ``Speedometer`` therefore samples a fixed reference kernel, which is part
of the benchmark and independent of freewalk, every ``INTERVAL_S`` seconds
from a timer signal, also while an op runs.  A span's time, less the time
spent sampling, is scaled by ``NOMINAL_S`` over the median reference time
in a window around the span: it is the span's time at the reference
kernel's nominal speed.  A change to freewalk moves the span and leaves
the reference alone, so the adjusted time moves with the program and not
with the neighbours.  The unadjusted times are kept in the run's record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.1  # reference samples this close to a span judge its speed
# The kernel's uncontended time on the 2-core Xeon VM where the benchmark was
# defined; it only sets the scale of adjusted times.
NOMINAL_S = 0.165e-3


def reference_kernel() -> int:
    """Fixed interpreter work: dict updates, big-integer products and a keyed sort."""
    table: dict[int, int] = {}
    for i in range(1000):
        table[i % 37] = table.get(i % 37, 0) + i * 3
    x = 3**400 + 7
    for _ in range(60):
        x = (x * 12345678901) % (2**700 - 1)
    pairs = [(i, str(i)) for i in range(60)]
    pairs.sort(key=lambda pair: pair[1])
    return len(table) + pairs[0][0] + x % 2


class Speedometer:
    """Samples the reference kernel on a timer while active."""

    def __init__(self):
        self.times: list[float] = []
        self.latencies: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.times.append(start)
        self.latencies.append(end - start)
        self.overhead += end - start

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def adjust(self, start: float, end: float, seconds: float) -> float:
        """Adjusted time of a span [start, end] that took ``seconds`` less sampling."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        local = self.latencies[lo:hi] or self.latencies[max(0, lo - 1):lo + 1]
        return seconds * NOMINAL_S / statistics.median(local)
