"""Machine-speed calibration.

On a 2-vCPU virtual machine shared with other tenants, the same pure-Python
loop took about 0.62 ms or about 1.2 ms, switching between the two several
times a minute.  A timing taken alone says as much about the neighbours as
about lry.  So the benchmark times a fixed kernel of the same kind of work
as lry's (exact fractions, dictionaries, sorting) just before and just
after every timed call, and every 0.1 s during it.  It then scales the
call's time by ``REFERENCE_S`` over the mean of those kernel times.  Scaled
times read as times on a machine where the kernel takes ``REFERENCE_S``.

Over a minute of sweep requests, scaling cut the variation of 5-second
totals from 8.8% to 1.5%.  Sampling during the call cut the variation of
repeated 2-second oracle requests from 11% to 4%.  Work that the slow phase
slows less than the kernel (the large allocations of geodelta) is
over-corrected in that phase, so its scaled times vary more.

The kernel does not use lry, so no change to lry can move the scale.  The
kernel must never change, or scaled times stop being comparable across
commits.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
REPEATS = 5
SAMPLE_INTERVAL_S = 0.1


def kernel() -> list[int]:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        seen[i] = acc.numerator % 97
    return sorted(seen.values())


def kernel_seconds() -> float:
    """Median time of REPEATS kernel runs, with the garbage collector
    paused so that the size of lry's heap does not reach the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """Times calls, and the kernel around them and, every
    ``SAMPLE_INTERVAL_S``, during them.

    The kernel runs during a call from a timer signal, whose handler the
    interpreter runs between bytecodes; its time is taken out of the call's.
    Runs that time the layers inside a call pass ``sample_during_calls=False``
    so that no kernel run lands inside a layer's time.
    """

    def __init__(self, sample_during_calls: bool = True):
        self.interval = SAMPLE_INTERVAL_S if sample_during_calls else 0.0
        self.last = kernel_seconds()
        self.elapsed = 0.0  # of the last call, without kernel runs
        self.factor = 1.0  # of the last call: REFERENCE_S over its mean kernel time

    def call(self, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``; afterwards, also when it raised,
        ``elapsed`` and ``factor`` describe the call."""
        kernels = [self.last]
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            start = perf_counter()
            kernels.append(kernel_seconds())
            spent += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample) if self.interval else None
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.elapsed = perf_counter() - start - spent
            if previous is not None:
                signal.signal(signal.SIGALRM, previous)
            self.last = kernel_seconds()
            kernels.append(self.last)
            self.factor = REFERENCE_S / statistics.mean(kernels)
