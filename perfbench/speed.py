"""Reference kernel that measures how fast the host runs right now.

On a shared host a core's speed changes by tens of percent within seconds
as other tenants load the machine. CPU time tracks wall time through these
swings, so the time is not stolen from the process: the core itself runs
slower. The benchmark times this fixed pure-Python kernel around every timed
interval and divides the interval by the kernel's slowdown against its time
on an idle core, NOMINAL_S. A corrected time reads as seconds on an idle
core of the reference host, and the momentary load cancels out.
"""

import math
import time

LOOPS = 40_000
# Kernel time on an idle core of a 2-CPU Intel Xeon host under Python 3.11.
NOMINAL_S = 3.1e-3


def slowdown() -> float:
    """How many times slower than NOMINAL_S the kernel runs at this moment."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(LOOPS):
        total += math.sin(i * 1e-3)
    return (time.perf_counter() - t0) / NOMINAL_S
