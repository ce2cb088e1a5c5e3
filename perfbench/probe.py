"""Speed probe: a fixed piece of reference work whose duration tracks how
fast a shared machine runs at the moment, and ``SpeedProbe``, which times it
between operations and rescales their times.

The probe's mix follows where biasforge spends its time: adaptive
quadrature calling back into Python, interpreted loops, and numpy on
mid-sized arrays.  ``PROBE_REF_S`` is its duration on the reference machine
when quiet, so a time multiplied by ``PROBE_REF_S / probe_seconds()`` reads
in reference-machine seconds.
"""

import bisect
import math
import time

import numpy as np
from scipy.integrate import quad

PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.15
_X = np.linspace(0.0, 1.0, 4096)


def _integrand(x):
    return float(np.exp(-x * x)) * math.cos(3.0 * x)


def probe_seconds():
    start = time.perf_counter()
    for _ in range(4):
        quad(_integrand, -3.0, 3.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        s = 0.0
        for i in range(4000):
            s += math.sqrt(i)
        for _ in range(8):
            np.interp(_X * 0.7, _X, _X)
            np.sort(_X[::-1])
    return time.perf_counter() - start


class SpeedProbe:
    """Momentary speed of a shared machine.  The probe kernel is timed at
    operation boundaries (at most every PROBE_EVERY_S); a span of work is
    rescaled by PROBE_REF_S over the probe time around it, so a period in
    which the whole machine runs slower does not read as a slower program."""

    def __init__(self, near_s):
        self.near_s = near_s  # probes this far before and after an operation count
        self.at = []        # perf_counter at the end of each probe
        self.took = []      # probe durations

    def sample(self):
        took = probe_seconds()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def due(self):
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.sample()

    def spent_between(self, start, end):
        return sum(self.took[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)])

    def set_factors(self, ops):
        for op in ops:
            op.factor = self.factor(op.start, op.end)

    def factor(self, start, end):
        """PROBE_REF_S over the median probe time from near_s before
        [start, end] to near_s after it (at least the two probes bracketing
        it)."""
        i = min(bisect.bisect_left(self.at, start - self.near_s),
                bisect.bisect_right(self.at, start) - 1)
        j = max(bisect.bisect_right(self.at, end + self.near_s),
                bisect.bisect_left(self.at, end) + 1)
        near = sorted(self.took[max(i, 0):j])
        return PROBE_REF_S / near[len(near) // 2]

    def normalize(self, ops, start, end):
        """Reference-machine seconds of the window [start, end]: its
        operations at their own factors, the rest of the window (benchmark
        code between operations) at the window's factor, probes excluded."""
        rest = (end - start) - self.spent_between(start, end) - sum(o.seconds for o in ops)
        return (sum(o.seconds * o.factor for o in ops)
                + max(rest, 0.0) * self.factor(start, end))
