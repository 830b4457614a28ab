"""Host-speed correction for wall-clock timings.

The measured host shares its cores with other tenants, and its speed
drifts by up to 2x over a few seconds: one fixed pure-Python loop took
0.23 s to 0.48 s on successive repeats within one minute, and its CPU
time equalled its wall time. Such drift swamps a 25% regression bound.

:class:`SpeedProbe` runs a small fixed calibration kernel from a
``SIGALRM`` handler every ``interval`` seconds while the workload runs.
A timed interval is then corrected in two steps:

1. the kernel's own time inside the interval is subtracted;
2. the rest is scaled by ``REFERENCE_KERNEL_S / local``, where
   ``local`` is the mean kernel time inside the interval, or the last
   kernel time before it when no sample fell inside.  Samples further
   away only blur sub-second drift: widening the window to 0.25 s
   around each spec raised the per-spec spread on ``sweep`` from 4% to
   7%.

The corrected value is the interval's length on the reference host
running at its unloaded speed. A fixed reference, rather than the
fastest kernel time seen in the run, keeps a run spent wholly in a slow
phase from setting its own yardstick.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Dict, List, Tuple

#: The kernel's time on an idle core of the reference host (Intel Xeon
#: at 2.0 GHz, Python 3.11): corrected timings are in that host's seconds.
REFERENCE_KERNEL_S = 144e-6


def _kernel() -> int:
    table = {}
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
        table[i & 63] = acc
    return acc


class SpeedProbe:
    """Samples the calibration kernel while the ``with`` block runs."""

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        #: ``(start, seconds)`` of every kernel run, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrector(self):
        """A function mapping a raw ``(start, end)`` interval of this
        run to its corrected length in seconds."""
        samples = list(self.samples)  # the handler may still append
        if not samples:
            return lambda start, end: end - start
        starts = [start for start, _ in samples]
        prefix = [0.0]
        for _, seconds in samples:
            prefix.append(prefix[-1] + seconds)

        def corrected(start: float, end: float) -> float:
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_left(starts, end)
            probe_time = prefix[hi] - prefix[lo]
            if hi == lo:  # no sample inside: take the one just before
                lo, hi = max(0, lo - 1), max(1, lo)
            local = (prefix[hi] - prefix[lo]) / (hi - lo)
            return (end - start - probe_time) * REFERENCE_KERNEL_S / local
        return corrected

    def summary(self) -> Dict[str, float]:
        ordered = sorted(seconds for _, seconds in self.samples) or [0.0]
        return {"samples": len(self.samples),
                "kernel_min_s": ordered[0],
                "kernel_median_s": ordered[len(ordered) // 2]}
