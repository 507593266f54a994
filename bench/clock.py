"""Host-speed calibration: every reported time is scaled to one reference speed.

On a shared host the CPU time of identical work drifts by 20-30% within
a second and by up to 1.8x between minutes, as neighbours come and go.
A fixed kernel that never touches sonckit (Python tuple, sort and dict
work plus one small HiGHS LP, the mix sonckit itself runs) is timed every
CAL_EVERY_S seconds between operations.  An operation's CPU time is
scaled by CAL_REFERENCE_S over the median kernel time in a short window
around it, so what remains is the cost of the code under test at the
reference speed: a slower sonckit still reads slower, a slower host does
not.

Regressing operation times on the kernel's times over 45-s runs gave an
exponent of 0.9-1.0 on bound-mixed, bound-sonc and dual-batch, so the
scaling is one for one; kernels of plain Python or of small numpy calls
gave 0.6-0.8 and overcorrected.  On catalog-cold the exponent was 0.6:
its operations last up to 2 s and see the kernel only at their ends.
Narrow windows tracked the host best (0.3 s beat 1.5 s on every workload).
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter, process_time

import numpy as np
from scipy.optimize import linprog

#: The kernel's CPU time at the reference speed: a round value near its
#: median on a 2-vCPU shared x86-64 VM (Python 3.11, numpy 2.4, scipy's HiGHS).
CAL_REFERENCE_S = 0.0045
#: Wall seconds between kernel samples, and the reach of the window of
#: samples that scales an operation, on either side of it.
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 0.3


def kernel() -> float:
    points = sorted(tuple((i * 7919 + j) % 101 for j in range(3)) for i in range(1500))
    index = {p: i for i, p in enumerate(points)}
    lp = linprog(np.ones(4), A_ub=-np.eye(4), b_ub=-np.ones(4), method="highs")
    return len(index) + lp.fun


class Clock:
    """Kernel samples (wall time taken, CPU seconds) over one process."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            at = perf_counter()
            t0 = process_time()
            kernel()
            self.samples.append((at, process_time() - t0))
        finally:
            if was_enabled:
                gc.enable()
        self._last = at

    def tick(self) -> None:
        """Sample when CAL_EVERY_S has passed since the last sample."""
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking CPU time spent in wall interval [start, end] to the
        reference speed.  Callers tick before every timed call, so a sample
        lies at most CAL_EVERY_S before `start` and the window is never empty."""
        lo, hi = start - CAL_WINDOW_S, end + CAL_WINDOW_S
        near = [cpu for at, cpu in self.samples if lo <= at <= hi]
        if not near:
            raise RuntimeError("no calibration sample near a timed interval")
        return CAL_REFERENCE_S / statistics.median(near)

    def speed(self) -> float:
        """Median kernel time over the whole run, in seconds (reported as is)."""
        return statistics.median(cpu for _, cpu in self.samples)
