"""The machine's pace, measured by a fixed reference kernel.

On a shared host the same code runs at different speeds from one stretch
of seconds to the next: the other work on the host can slow every
instruction of this process by 1.3-2x for 20 s to minutes at a time, CPU
time included.  A run that falls in such a
stretch reads slow throughout, whatever statistic is taken over it.

``Pacer`` times ``kernel`` between ops, a fixed piece of pure-Python work
in the bytecode mix of the package's hot loops (integer arithmetic,
bytearray and list indexing, set probes) that imports nothing from the
package, so no change to the package moves it.  An op's latency is scaled
by ``REFERENCE_KERNEL_S`` over the kernel time measured around it: the
result is the op's latency at the pace where the kernel takes
``REFERENCE_KERNEL_S``, a stretch-independent figure in seconds.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time at the reference pace, about its time on an undisturbed
#: 2-vCPU Intel Xeon VM under CPython 3.11.  Scaled figures are latencies
#: at that pace; the constant only sets the scale, it cancels out of any
#: comparison made on one machine.
REFERENCE_KERNEL_S = 7.5e-4

#: Op time after which the kernel is timed again.
SAMPLE_EVERY_S = 0.02

#: Kernel samples on each side of an op that its pace is the median of.
HALF_WINDOW = 2


def kernel() -> int:
    """Fixed work, ``REFERENCE_KERNEL_S`` long at the reference pace."""
    terms = list(range(300, 900, 5))
    covered = bytearray(2048)
    members = set(terms)
    hits = 0
    for j in range(1, len(terms)):
        doubled = 2 * terms[j]
        for i in range(j):
            z = doubled - terms[i]
            if z in members:
                hits += 1
            covered[z & 2047] = 1
    return hits + sum(covered)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Pacer:
    """Kernel samples taken between ops, and each op's place among them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.places: list[int] = []
        self.owed = SAMPLE_EVERY_S

    def tick(self) -> None:
        """Before an op: time the kernel if due, and note the op's place."""
        if self.owed >= SAMPLE_EVERY_S:
            self.samples.append(time_kernel())
            self.owed = 0.0
        self.places.append(len(self.samples) - 1)

    def charge(self, seconds: float) -> None:
        """After an op: count its time towards the next sample."""
        self.owed += seconds

    def scaled(self, latencies: list[float]) -> list[float]:
        """The latencies of the ops ticked since the last call, at the reference pace.

        Each op's pace is the median of the kernel samples within
        ``HALF_WINDOW`` of its own (those taken so far), so one disturbed
        sample moves nothing.
        """
        scale = {k: REFERENCE_KERNEL_S / statistics.median(
                     self.samples[max(0, k - HALF_WINDOW):k + HALF_WINDOW + 1])
                 for k in set(self.places)}
        scaled = [t * scale[k] for t, k in zip(latencies, self.places, strict=True)]
        self.places.clear()
        return scaled
