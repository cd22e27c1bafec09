"""Machine-speed yardstick for the timed phase.

On a shared 2-CPU virtual machine (Intel Xeon) the same op's wall time,
and its CPU time with it, moves by up to 50 % over tens of seconds, in
phases of several seconds, as other tenants load the host. A fixed kernel,
timed while the ops run, measures that drift. Its work mirrors the
package's mix (Bessel rows, a Python loop, NumPy complex exponentials).

Each op's latency is divided by the op's speed factor: the mean kernel
time during the op (or, when no sample fell inside it, just before and
after it) over REFERENCE_S. The `_ref` metrics are built from these
rescaled latencies, that is they are wall-clock figures at the speed at
which the kernel takes REFERENCE_S. The kernel and REFERENCE_S are part of
the benchmark's definition: a change to either changes every `_ref` metric.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import special

# kernel time on a quiet 2-CPU Intel Xeon VM, Python 3.11, numpy 2.4
REFERENCE_S = 0.015
# period of the in-process samples; each costs about 15 ms
INTERVAL_S = 0.25

_ORDERS = np.arange(600)
# small enough that the kernel adds about 1 MB to peak RSS
_PHASES = np.linspace(0.0, 1.0, 25_000)


def kernel() -> float:
    acc = 0.0
    for k in range(3):
        acc += float(special.jv(_ORDERS, 400.0).sum())
        acc += float(special.yv(_ORDERS, 700.0)[:400].sum())
        for i in range(4000):
            acc += i * i
        acc += float(np.exp(1j * k * _PHASES).real.sum())
    return acc


class Probe:
    """Kernel samples taken during the timed phase.

    `take` samples once; `periodic` also samples every INTERVAL_S from a
    SIGALRM handler, which runs between bytecodes of the in-process ops.
    Only those single-run samples can fall inside an op.
    `spent` is the total time spent sampling, which the caller subtracts
    from op latencies and from the timed phase.
    """

    def __init__(self):
        self.times: list[float] = []      # start of each sample
        self.kernel_s: list[float] = []
        self.spent = 0.0

    def take(self, runs: int = 1) -> None:
        """One sample: the median time of `runs` kernel runs."""
        t = time.perf_counter()
        times = []
        for _ in range(runs):
            t_run = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t_run)
        self.times.append(t)
        self.kernel_s.append(statistics.median(times))
        self.spent += time.perf_counter() - t

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def periodic(self, on: bool) -> None:
        if on:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.times, start),
                bisect.bisect_left(self.times, end))

    def spent_in(self, start: float, end: float) -> float:
        """Time spent sampling within [start, end] (single-run samples)."""
        lo, hi = self._window(start, end)
        return sum(self.kernel_s[lo:hi])

    def speed(self, start: float, end: float) -> float:
        """Speed factor over [start, end]: mean kernel time / REFERENCE_S."""
        lo, hi = self._window(start, end)
        inside = self.kernel_s[lo:hi] or \
            self.kernel_s[max(lo - 1, 0):min(hi + 1, len(self.kernel_s))]
        return sum(inside) / len(inside) / REFERENCE_S
