"""Machine-speed calibration for the timed metrics.

The 2-core VM this benchmark was built on changes speed by up to 1.7x over
tens of seconds.  Process CPU time shows the same drift as wall time, so
the time is not taken from the process.  A whole 30 s run can fall into a
slow phase, and then no statistic taken inside the run recovers the
program's own cost.  So the benchmark times a fixed kernel of plain
Fraction arithmetic, the same kind of work as the library's, between
consecutive requests, and scales each latency by REFERENCE_S / (the mean of
the kernel times just before and just after it).  That gives seconds at the
speed where the kernel takes REFERENCE_S.  The kernel does not touch
psi_umbral, so a change to the program cannot move the scale.  The report
prints the raw figures next to the scaled ones.
"""

import time
from fractions import Fraction

# A fixed reference: scaled times are seconds at the speed where the kernel
# takes 3 ms, which is about the typical speed of the 2-core Intel Xeon VM
# (Python 3.11.7) the benchmark was built on.  Its fastest phases run the
# kernel in about 2 ms.
REFERENCE_S = 0.0030


def kernel():
    acc = Fraction(0)
    for k in range(1, 500):
        acc += Fraction((-1) ** k, k * k + 1)
    return acc


def kernel_time():
    """Best of three, so one interruption does not count as a slow machine."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scale(latencies, kernels):
    """Latencies at reference speed; ``kernels`` holds one kernel time
    before the first latency and one after each."""
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(latencies, kernels, kernels[1:])]
