"""Scaling of measured times to a reference CPU speed.

Imports nothing from kntorus and only built-in modules, so a fresh
interpreter measuring set-up time can load it first at little cost and
scale its own run.
"""

from __future__ import annotations

import bisect
import cmath
import signal
from time import perf_counter

# Time of one _kernel() call at the reference speed: an uncontended core of
# the reference machine (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_KERNEL_S = 0.001
PERIOD_S = 0.05  # between samples while a probe is active


_KERNEL_STEPS = tuple(0.1 * cmath.exp(1j * k) for k in range(256))


def _kernel() -> complex:
    """Fixed pure-Python loop with the instruction mix of kntorus (complex
    arithmetic, abs, tuple indexing).  It never calls into kntorus and
    allocates no container, so no garbage collection runs inside it."""
    z = 0.3 + 0.1j
    acc = 0j
    for i in range(3000):
        z = z * z * 0.5 + _KERNEL_STEPS[i & 255]
        if abs(z) > 2.0:
            z = 0.3 + 0.1j
        acc += z / (1.0 + abs(z))
    return acc


class SpeedProbe:
    """Scales op times to the reference speed.

    The benchmark host shares its cores: the same op runs up to about 1.8x
    slower while a neighbour is busy, in phases as short as a fraction of
    a second, and CPU time stretches with it.  While active, the probe
    times _kernel() from a SIGALRM handler every PERIOD_S seconds, inside
    the ops.  An op's scale is REFERENCE_KERNEL_S over the mean kernel
    time sampled during it (over the nearest samples for an op shorter
    than a period), and the probe's own time is taken out of the op's.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.kernel_s: list[float] = []
        self.spent = 0.0  # probe seconds so far, to subtract from ops

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi == lo:  # no sample inside: the last one before and the first after
            lo, hi = max(0, lo - 1), lo + 1
        inside = self.kernel_s[lo:hi]
        return REFERENCE_KERNEL_S * len(inside) / sum(inside)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
