"""Host-speed correction for timings taken on a shared machine.

On a shared host the same work can take twice as long from one minute to
the next: a neighbour slows the core itself, so CPU time tracks wall time
and neither is steady. In ten runs of identical exhaustive-verify work on
a shared 2-vCPU virtual machine, raw wall-clock p50 and p90 spread by 40%
(quartile distance over median).

``HostClock`` times a fixed reference computation (stdlib ``Fraction``
arithmetic and tuple hashing, the operations fairdiv spends its time on)
every ``INTERVAL_S`` from a ``SIGALRM`` handler on the benchmark's own
thread. A span of raw time ``t`` becomes nominal time

    (t - time spent in the handler) * speed,  speed ~ NOMINAL_S / reference time

taken from the samples in or near the span (see ``HostClock.speed``): the
time the work would have taken on a host where the reference takes
``NOMINAL_S``. The reference never calls fairdiv, so a change to fairdiv
moves nominal times in the same proportion as raw ones. The handler runs
only Python code of its own and adds about 1% to the wall time of a run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

NOMINAL_S = 0.0006  # the reference's time on the nominal host; sets the scale
INTERVAL_S = 0.05
WINDOW_S = 0.25
MIN_INSIDE = 10

_TABLE = tuple(Fraction(i, 7) for i in range(1, 65))


def reference() -> float:
    """Time one fixed unit of interpreter-bound work."""
    start = time.perf_counter()
    for _ in range(4):
        sum(_TABLE, Fraction(0))
        hash(_TABLE)
    return time.perf_counter() - start


def spot_speed(samples: int = 5) -> float:
    """Host speed now, relative to the nominal host: the median of a few
    back-to-back reference samples."""
    return NOMINAL_S / statistics.median(reference() for _ in range(samples))


class HostClock:
    """Samples host speed while active (a context manager) and converts raw
    perf_counter spans taken meanwhile into nominal seconds."""

    def __init__(self):
        self.at = array("d")  # when each sample started
        self.took = array("d")  # how long its reference took
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a late signal must not nest inside a sample
            return
        self._busy = True
        try:
            self.at.append(time.perf_counter())
            self.took.append(reference())
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self, start: float, end: float) -> float:
        """Host speed over [start, end], relative to the nominal host.

        A span holding at least ``MIN_INSIDE`` samples gets their mean
        speed, which integrates a host that changes speed during it. A
        shorter span gets the median over the samples within ``WINDOW_S``,
        which one slow or fast sample cannot move."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo >= MIN_INSIDE:
            return sum(NOMINAL_S / took for took in self.took[lo:hi]) / (hi - lo)
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample near the span: use the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds for the raw span [start, end] of this thread's
        work, without the samples the handler took inside it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return (end - start - sum(self.took[lo:hi])) * self.speed(start, end)
