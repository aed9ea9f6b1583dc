"""A sampling speedometer that corrects measured times for the host's
momentary CPU speed.

On a shared host the same work can take 1.5x longer for tens of seconds at
a time, with CPU time equal to wall time, so a single run of a map moves by
20-30% from run to run. Every `period` seconds a SIGALRM handler runs a
fixed reference probe (small numpy kernels and a Python loop, ~1 ms) and
records how long it took. Between two samples the clock runs at
REFERENCE_PROBE_S / (mean probe time of the two samples), and the probes'
own time is left out, so an interval measured on this clock is the wall
time the same work would take at the reference speed.

Intervals are taken as raw `time.perf_counter()` stamps while the clock
runs and converted with `SpeedClock.span(a, b)` after `stop()`.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# about the median probe time on the 2-vCPU Xeon host the benchmark was
# written on: corrected seconds are seconds at that speed
REFERENCE_PROBE_S = 1.0e-3

_SMALL = np.random.default_rng(0).random((32, 32))
_STATES = (np.random.default_rng(1).random((150, 200)) * 4).astype(np.int8)
_FRAME = np.random.default_rng(2).random((150, 200))
_TABLE = np.random.default_rng(3).random((3, 4))


def probe() -> float:
    """The reference work, a mix like the program's: small-window numpy
    arithmetic, a sensor-table gather and a count over a 150x200 frame, and
    interpreter-bound integer arithmetic."""
    s = 0.0
    for i in range(30):
        b = _SMALL[i % 8 : i % 8 + 24, 4:28]
        s += float((b * 1.5 + 0.25).sum())
    s += float(_TABLE[_STATES % 3, _STATES].sum())
    s += float(np.count_nonzero(_FRAME > 0.5))
    k = 0
    for i in range(2000):
        k += (i * 7) % 13
    return s + k


class SpeedClock:
    def __init__(self, period: float = 0.05):
        self.period = period
        self.starts = []  # raw start of each probe
        self.ends = []  # raw end of each probe
        self.probe_total = 0.0  # probe seconds so far, for callers that time spans
        self._cum = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.starts.append(t)
        self.ends.append(end)
        self.probe_total += end - t

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.starts:  # shorter than one period: raw time
            now = time.perf_counter()
            self.starts, self.ends, self._rate, self._cum = [now], [now], [1.0, 1.0], [0.0]
            return
        g = [e - s for s, e in zip(self.starts, self.ends)]
        # rate[k] applies between the end of probe k-1 and the start of probe k
        self._rate = [REFERENCE_PROBE_S / g[0]]
        self._rate += [REFERENCE_PROBE_S / (0.5 * (g[k - 1] + g[k])) for k in range(1, len(g))]
        self._rate.append(REFERENCE_PROBE_S / g[-1])
        self._cum = [0.0]
        for k in range(1, len(g)):
            self._cum.append(self._cum[-1] + (self.starts[k] - self.ends[k - 1]) * self._rate[k])

    def corrected(self, t: float) -> float:
        """Corrected clock reading at raw time t (origin: the first probe)."""
        k = bisect.bisect_right(self.starts, t)  # probes started at or before t
        if k == 0:
            return (t - self.starts[0]) * self._rate[0]
        if t < self.ends[k - 1]:  # inside probe k-1: the clock stands still
            return self._cum[k - 1]
        return self._cum[k - 1] + (t - self.ends[k - 1]) * self._rate[k]

    def lead(self, seconds: float) -> float:
        """Seconds measured just before start(), rescaled at the speed of
        the first probes (the median of up to five)."""
        g = sorted(e - s for s, e in zip(self.starts[:5], self.ends[:5]))
        mid = g[len(g) // 2]
        return seconds * REFERENCE_PROBE_S / mid if mid > 0 else seconds

    def span(self, a: float, b: float) -> float:
        return self.corrected(b) - self.corrected(a)

    def raw_span(self, a: float, b: float) -> float:
        """Wall-clock seconds of [a, b] less the probes inside it."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return b - a - sum(min(e, b) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
