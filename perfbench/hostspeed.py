"""Host speed: a fixed piece of reference work, timed along the pass.

On a shared host the whole process runs at 1.0-1.6 times its fastest
speed, in spells of tens of milliseconds to minutes.  While the measured
pass runs, a timer interrupts it every ``INTERVAL_S`` of wall time and times
``reference_s``; the time spent there is taken out of the stage times.  The
benchmark scales the pass's time by ``NOMINAL_S / mean(samples)``: the time
the work would take on a host where the reference takes ``NOMINAL_S``.  The
samples are spread evenly over wall time, so their mean follows the host's
speed over the whole pass.  The program never runs the reference, so a
change to the program does not move it.

The reference is interpreted arithmetic and small matrix products, the
pipeline's own mix.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# Mean of reference_s inside a measured pass on a shared 2-core Xeon VM
# (nproc 2), in seconds.
NOMINAL_S = 0.00095
INTERVAL_S = 0.1

_SMALL = np.random.default_rng(0).standard_normal((64, 64))


def _work(loops: int) -> None:
    acc = 0
    for i in range(1_000 * loops):
        acc += i * i % 7
    for _ in range(loops):
        _SMALL @ _SMALL


def reference_s() -> float:
    """Seconds taken by one fixed piece of reference work, after a short
    untimed run that brings its data back into cache, so that the sample
    does not depend on what the program left there."""
    _work(1)
    t0 = time.perf_counter()
    _work(8)
    return time.perf_counter() - t0


class Probe:
    """Samples of ``reference_s``, taken every ``INTERVAL_S`` while
    ``sampling`` is active; ``spent_s`` is the wall time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at nominal host speed."""
        return NOMINAL_S / self.mean_s
