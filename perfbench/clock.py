"""Timings rescaled by the measured speed of the machine while they were taken.

On a shared 2-core host the CPU speed available to one thread switches
between two states about 1.7x apart, every few seconds (an op that takes
4.5 s in one run takes 7.3 s in the next with the same inputs, and CPU time
moves with wall time).  Medians over more work do not remove that, so the
benchmark samples the machine's speed while it measures.  A SIGALRM timer
runs a frozen ~1 ms reference kernel every INTERVAL_S in the main thread:
small-array numpy calls, a Python loop and float math, which is the
instruction mix of the library's stepper.  A measured duration excludes
the sampling time inside it and is rescaled by

    (REF_NOMINAL_S / mean kernel time of the samples during and next to it) ** beta

which gives seconds at a kernel time of REF_NOMINAL_S.  `beta` is the
sensitivity of that kind of work to the machine's state (SENSITIVITY): the
stepper slows as much as the kernel (beta = 1), the special functions and
the trajectory reads less (beta < 1), so a full rescale would make them read
lower while the machine is slow.  A library change moves the ops and leaves
the kernel alone, so the ratio keeps it; a drift of the machine moves both,
so the ratio cancels it.  The kernel and the sensitivities are part of the
benchmark and must not change between compared commits; perfbench/
calibrate.py measures the sensitivities.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

import numpy as np

# Kernel time on the 2-core x86_64 box (Python 3.11.7, numpy 2.4.6) in its
# fast state (samples fall in two modes, 0.84-1.07 ms and 1.47-1.68 ms).  It
# fixes the unit, not the comparison.
REF_NOMINAL_S = 0.00085
# A kernel sample above this is taken in the slow state (between the modes).
SLOW_SAMPLE_S = 0.00125
# Exponent `beta` of the rescaling for each kind of timed work: the duration
# ratio slow/fast state is (kernel ratio) ** beta.  Medians of four 60 s runs
# of perfbench/calibrate.py at commit 88450ac on the 2-core box, which gave
# step 0.94-1.05, tau 0.66-0.79 and maps 0.70-0.97.  "step":
# make_backward_basis, solve_global and constant_numeric (also used for
# set-up, import included); "tau": tau_profile reads; "maps": maps_closed
# sweeps.
SENSITIVITY = {"step": 1.0, "tau": 0.78, "maps": 0.9}
# Short and frequent: a 5 s op averages ~100 samples, so the share of time
# spent in the slow state is estimated to a few percent (2% overhead).
INTERVAL_S = 0.05
_A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.2, -0.3, 0.0]])


def reference_kernel(steps: int = 100) -> float:
    y = np.array([0.1, 0.2, 0.3])
    h, acc = 1e-3, 0.0
    for i in range(steps):
        k1 = _A @ y + np.expm1(0.1 * y)
        y2 = y + 0.5 * h * k1
        k2 = _A @ y2 + np.expm1(0.1 * y2)
        y = y + h * k2
        acc += float(y[0])
        for j in range(1, 12):
            acc += math.log(i + j) * 1e-9 / (j + 1.0)
    return acc


class Clock:
    """Reference-kernel samples taken on a timer while the benchmark runs."""

    def __init__(self):
        self.starts: list[float] = []    # when each sample began
        self.samples: list[float] = []   # kernel seconds of each sample
        self.paused_s = 0.0              # time spent sampling
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.paused_s += perf_counter() - t0

    def near(self, t0: float, t1: float) -> list[float]:
        """Kernel samples taken during [t0, t1] or within INTERVAL_S of it."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:   # a delayed timer left the window empty: take the sample before
            lo, hi = max(lo - 1, 0), max(lo, 1)
        return self.samples[lo:hi]

    def scale(self, seconds: float, t0: float, t1: float, kind: str) -> float:
        """Rescale a duration of `kind` work measured over [t0, t1] to the nominal speed."""
        near = self.near(t0, t1)
        return seconds * (REF_NOMINAL_S * len(near) / sum(near)) ** SENSITIVITY[kind]

    def slow_share(self) -> float:
        """Share of all samples taken in the slow state."""
        return sum(s > SLOW_SAMPLE_S for s in self.samples) / max(len(self.samples), 1)


class Stopwatch:
    """Times one span of work, net of the clock's sampling inside it."""

    __slots__ = ("clock", "t0", "p0", "seconds", "window")

    def __init__(self, clock: Clock):
        self.clock = clock

    def __enter__(self):
        self.p0 = self.clock.paused_s
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.seconds = (t1 - self.t0) - (self.clock.paused_s - self.p0)
        self.window = (self.t0, t1)
        return False
