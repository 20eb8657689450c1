"""Machine-speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host, where the speed of
identical work drifts by 10-30% within seconds and between minutes as other
tenants load the host. A wall time alone then mixes the program's cost with
the host's load at that moment.

While operations run, a SIGALRM timer interrupts the benchmark process every
SAMPLE_INTERVAL_S and times a fixed reference kernel in it: small dense
eigensolves through numpy and scipy, a matrix product, and pure-Python
object and float work, the mix of the program's own hot path. The kernel's
time at that instant measures how fast the host runs this kind of work. An operation's time is rescaled to the
speed at which the kernel takes KERNEL_NOMINAL_S:

    seconds = (wall - sampling) * KERNEL_NOMINAL_S * mean(1 / kernel_j)

over the kernel samples j taken around the operation. The mean of 1/kernel
is the mean speed over the interval, which is what turns work into wall
time. `sampling` is the time the probe itself took inside the operation.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.linalg

SAMPLE_INTERVAL_S = 0.1
# Samples are pooled over at least this half-width around an operation's
# midpoint, so a 0.15 s operation is still rescaled by about 20 samples.
MIN_HALF_WINDOW_S = 1.0
# The kernel's typical time on the 2-core Xeon virtual machine the benchmark
# was written on, so rescaled times read as seconds on that machine at a
# typical load. A constant: it only sets the scale.
KERNEL_NOMINAL_S = 2.2e-3

_rng = np.random.default_rng(20120223)
_SYM12 = _rng.standard_normal((12, 12))
_SYM12 = _SYM12 + _SYM12.T
_SYM24 = _rng.standard_normal((24, 24))
_SYM24 = _SYM24 + _SYM24.T
_MAT = _rng.standard_normal((12, 12))
_FLOATS = [float(x) for x in _rng.standard_normal(64)]


class _Cell:
    def __init__(self, a):
        self.a = a

    def f(self, x):
        return self.a * x + 1.0


def kernel() -> float:
    """The reference work: about 2 ms on the machine named above.

    Of the mixes tried, this one's speed followed the speed of `consyn
    repro` best: rescaled, the call's time varied 3.3% (coefficient of
    variation) over 24 calls whose wall time varied 12%. A memory-streaming
    part followed it worse and is left out.
    """
    acc = 0.0
    for _ in range(15):
        w, v = np.linalg.eigh(_SYM12)
        acc += float(w[0]) + float((_MAT @ v).trace())
        acc += sum(x * x for x in _FLOATS)
    for _ in range(5):
        acc += float(scipy.linalg.eigh(_SYM24, check_finite=False)[0][0])
        acc += float(np.linalg.eigvalsh(_SYM24)[0])
    cells = {}
    for i in range(750):
        cells[i % 97] = _Cell(i * 0.5).f(float(i))
    return acc + sum(cells.values())


class SpeedProbe:
    """Samples the reference kernel on a timer while it is started."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def sampling_s(self, t0: float, t1: float) -> float:
        """Time the probe spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - s for s, e in
                   zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, t0: float, t1: float) -> float:
        """KERNEL_NOMINAL_S times the mean speed around [t0, t1]."""
        mid = (t0 + t1) / 2
        half = max((t1 - t0) / 2, MIN_HALF_WINDOW_S)
        lo = bisect.bisect_left(self.starts, mid - half)
        hi = bisect.bisect_right(self.starts, mid + half)
        if lo == hi:  # no sample near: use the whole run's
            lo, hi = 0, len(self.starts)
        speeds = [1.0 / (e - s) for s, e in
                  zip(self.starts[lo:hi], self.ends[lo:hi])]
        return KERNEL_NOMINAL_S * statistics.fmean(speeds)

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed."""
        return (t1 - t0 - self.sampling_s(t0, t1)) * self.scale(t0, t1)

    def kernel_median_s(self) -> float:
        return statistics.median(e - s for s, e in
                                 zip(self.starts, self.ends))
