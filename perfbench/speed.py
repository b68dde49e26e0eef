"""Timing that corrects for the machine's changing speed.

On a host shared with other jobs, the same pure-Python work takes up to
twice as long from one second to the next, and the level drifts over
minutes.  Process CPU time drifts with it, so it is no cure.  A
``Speedometer`` therefore times a small fixed calibration job every
``PERIOD`` seconds, from a ``SIGALRM`` handler, while the benchmark works.
A timed interval is reported as its wall time, less the time the handler
took inside it, scaled by ``REFERENCE_S`` over the mean duration of the
calibration samples taken during the interval (widened to ``WINDOW``
seconds around its middle when shorter).  That is the interval's length at
the reference speed: the speed at which one calibration job takes
``REFERENCE_S`` seconds.  The mean, not the median: the speed flips between
levels, and the interval's length follows the mean of the slowness over it.

The calibration job does the kind of work ``nwr`` does: set and dict
look-ups, a graph search and ``Fraction`` arithmetic.  Garbage collection is
held off while it runs, so that its duration does not depend on the size of
the program's heap.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

#: Seconds between two calibration samples.
PERIOD = 0.01
#: Shortest window, in seconds, whose samples scale a timed interval.
WINDOW = 0.1
#: Seconds one calibration job takes at the reference speed: about its
#: duration on a shared 2-core Xeon with Python 3.11.7 in its faster spells.
REFERENCE_S = 0.0005

_GRAPH = {v: ((7 * v + 1) % 48, (13 * v + 5) % 48, (29 * v + 3) % 48) for v in range(48)}


def calibration_job() -> Fraction:
    """A fixed piece of work of the kind ``nwr`` does."""
    total = Fraction(0)
    for source in range(0, 48, 2):
        seen, stack = {source}, [source]
        while stack:
            v = stack.pop()
            for w in _GRAPH[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        pairs = frozenset((source, w) for w in seen)
        total += Fraction(len(pairs), source + 1)
    return total


class Speedometer:
    """Samples the machine's speed while running; times intervals at the
    reference speed.  Use as a context manager around the timed work."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            calibration_job()
        finally:
            if collecting:
                gc.enable()
        done = time.perf_counter()
        self.stamps.append(start)
        self.samples.append(done - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """The start of an interval: wall clock and handler time so far."""
        return time.perf_counter(), self.spent

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, net wall seconds) of the interval begun at ``mark``."""
        start, spent = mark
        end = time.perf_counter()
        return start, end, (end - start) - (self.spent - spent)

    def scaled(self, start: float, end: float, net: float) -> float:
        """``net`` seconds, taken between ``start`` and ``end``, at the
        reference speed.  Call after the sampling has stopped."""
        widen = max(0.0, WINDOW - (end - start)) / 2
        lo = bisect.bisect_left(self.stamps, start - widen)
        hi = bisect.bisect_right(self.stamps, end + widen)
        if lo == hi:  # no sample in the window: take the nearest ones
            lo, hi = max(0, lo - 2), min(len(self.stamps), hi + 2)
        if lo == hi:
            raise RuntimeError("the speedometer took no calibration sample")
        return net * REFERENCE_S / statistics.fmean(self.samples[lo:hi])
