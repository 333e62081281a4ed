"""Machine speed sampled during a timed region.

The benchmark runs on shared machines, where other load can slow a
single-threaded Python process by half for tens of seconds.  `SpeedProbe`
runs a fixed reference kernel (exact `Fraction` arithmetic, the same kind
of work as the package's) every `INTERVAL_S` of wall time, from a SIGALRM
handler, so the samples interleave with the timed work and see the same
interference.  `reference_s` converts a wall time into the time the work
would have taken if the kernel ran at `REFERENCE_KERNEL_S`, the kernel's
time on an otherwise idle 2-core x86-64 machine with CPython 3.11.
`to_reference` does the same for a region too short to sample inside, such
as interpreter start-up, from kernel samples taken right after it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0005
INTERVAL_S = 0.02


def reference_kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 1) * Fraction(3, i + 2)
    return s


def kernel_s() -> float:
    """One timed kernel run.  Garbage collection is off meanwhile, so a
    collection the program's allocations have made due falls into program
    time and is not read as machine slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(wall_s: float, samples: list[float]) -> float:
    """`wall_s` scaled to the reference speed by the mean machine speed the
    samples saw, that is by the harmonic mean of the kernel times.  A
    sample the kernel spent mostly interrupted (a page fault, a preemption)
    reads as a speed near 0, which moves the result by at most
    1/len(samples) of it, however long the interruption was."""
    return wall_s * REFERENCE_KERNEL_S * sum(1 / s for s in samples) / len(samples)


class SpeedProbe:
    """Use as `with SpeedProbe() as probe:` around the timed region; the
    kernel also runs once on entry and once on exit, outside the region."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0  # kernel time inside the region, to subtract from it
        self._previous_handler = None

    def _kernel_s(self) -> float:
        dt = kernel_s()
        self.samples.append(dt)
        return dt

    def _on_alarm(self, *_) -> None:
        self.busy_s += self._kernel_s()

    def __enter__(self) -> "SpeedProbe":
        self._kernel_s()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._kernel_s()

    def reference_s(self, wall_s: float) -> float:
        """Wall time of the region, without the kernel's share, scaled to
        the reference speed."""
        return to_reference(wall_s - self.busy_s, self.samples)
