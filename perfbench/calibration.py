"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared machine the speed available to one thread changes by up
to 1.7x from one second to the next, as other tenants come and go, and CPU
time drifts just as much as wall time.  A fixed pure-Python kernel,
independent of graphmub, is timed every ``PROBE_EVERY_S`` from a SIGALRM
handler, so long ops are sampled while they run.  An op's time is its wall
time minus the kernel runs inside it, scaled by ``REF_PROBE_S`` over the
mean kernel time from the last sample before the op to the first after
it: the op's time at the reference speed.  Parent and child commits
measured on one machine are scaled alike, so comparisons hold; on a quiet
machine whose kernel takes ``REF_PROBE_S`` the scaled time is wall time.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

REF_PROBE_S = 0.002
PROBE_EVERY_S = 0.05


def kernel() -> float:
    """Seconds for 60 Gaussian eliminations of an 8 x 8 list matrix mod 7."""
    p, n = 7, 8
    t0 = time.perf_counter()
    for rep in range(60):
        m = [[(i * 5 + j * 3 + i * j + rep) % p for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                continue
            m[c], m[piv] = m[piv], m[c]
            inv = pow(m[c][c], p - 2, p)
            for r in range(c + 1, n):
                f = m[r][c] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples in time order: when each ended and how long it took."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.samples: list[float] = []
        # a traced run swaps in a wrapped kernel, so that kernel runs inside
        # a span are its child spans and stay out of its self time
        self.kernel = kernel

    def probe(self) -> None:
        self.samples.append(self.kernel())
        self.ends.append(time.perf_counter())

    @contextlib.contextmanager
    def sampling(self, every: float = PROBE_EVERY_S):
        """Probe now, every ``every`` seconds while the block runs
        (interrupting it between bytecodes; 0 turns this off), and once
        more when it ends."""
        self.probe()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect_right(self.ends, t0) - 1, bisect_left(self.ends, t1)

    def factor(self, t0: float, t1: float) -> float:
        """REF_PROBE_S over the mean kernel time from the last sample
        before t0 to the first after t1 (both must exist)."""
        first, last = self._window(t0, t1)
        return REF_PROBE_S / statistics.fmean(self.samples[first:last + 1])

    def scaled(self, t0: float, t1: float) -> float:
        """Time of the span [t0, t1] at the reference speed, without the
        kernel runs that interrupted it."""
        first, last = self._window(t0, t1)
        return (t1 - t0 - sum(self.samples[first + 1:last])) * self.factor(t0, t1)
