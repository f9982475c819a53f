"""Interpreter-speed calibration for measuring on a shared machine.

On a small shared machine the speed of one CPU drifts by up to 2x over a
few seconds, because other tenants load the same cores.  The drift is not
visible as steal time, and it does not track between the two CPUs, so it
can only be seen by timing a fixed piece of work on the CPU that runs the
program, at the time the program runs.

`SpeedSampler` does that: a SIGALRM timer interrupts the process every
INTERVAL_S and the handler times `reference_loop()` (pure-Python integer
and dict work, about 0.3 ms).  A measured interval is converted to
reference seconds by multiplying it by REF_NOMINAL_S over the mean
duration of the reference loop during it (or, for a short interval, within
WINDOW_S of it), that is
to the time it would have taken with the CPU running at the speed at which
the reference loop takes REF_NOMINAL_S.  The sampling costs about 1.5% of
every timed interval, equally on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_NOMINAL_S = 300e-6
INTERVAL_S = 0.02
WINDOW_S = 0.5
MIN_SAMPLES = 8


def reference_loop() -> int:
    """A fixed piece of interpreter work."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        table[i & 255] = i * 7 + acc
        acc += table.get((i * 13) & 255, 1) % 97
    return acc


class SpeedSampler:
    """Reference-loop timings taken during the run, by a periodic signal."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def burst(self, seconds: float) -> None:
        """Sample back to back for `seconds` (for intervals too short to hold samples)."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second for the interval [start, end].

        Uses the samples taken inside the interval when there are at least
        MIN_SAMPLES of them, else those within WINDOW_S of it.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return REF_NOMINAL_S / statistics.fmean(window)
