"""The machine's speed, sampled while a pass runs.

On a shared VM the speed of the whole machine drifts: a fixed kernel ran up
to 40% slower for seconds or minutes at a time, and the pass times of every
workload followed it.  That drift, not the package, set the spread of raw
pass times between runs.  So the timed passes carry a probe: a SIGALRM
timer interrupts the pass every `PERIOD` seconds and times one run of a
fixed reference kernel.  The kernel does not touch waveslab.  A pass's time
is its wall time without the probe's own time; dividing it by the mean
kernel time during the pass and multiplying by `REFERENCE_KERNEL_S` gives
the time the pass would take with the machine at its reference speed.

The kernel mixes what a pass does: a Python float loop and small dense
matrix products.  It writes into a buffer made once, so it allocates
almost nothing.  With a kernel that also ran a small sparse LU, the peak
RSS of `adaptive` spread by 0.10 of its median over five runs; with this
one, by 0.005 to 0.07 over ten.  Python runs a signal handler between
bytecodes only, so the kernel never interrupts a sparse factorization or a
BLAS call half-way; it runs as soon as the call returns.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds between two probes; each probe takes about 3 ms.
PERIOD = 0.1
# A round value inside the range of the kernel's median time (3.1 to 4.0 ms)
# on the VM the baseline in NOTES.md was measured on (2-vCPU x86_64, Intel
# Xeon, 2.1 GHz).  It only fixes the scale.
REFERENCE_KERNEL_S = 3.5e-3

_DENSE = np.random.default_rng(0).standard_normal((40, 40))
_PRODUCT = np.empty_like(_DENSE)


def kernel() -> None:
    """A fixed amount of interpreter and dense work."""
    total = 0.0
    for i in range(24000):
        total += i * 0.5
    for _ in range(300):
        np.matmul(_DENSE, _DENSE, out=_PRODUCT)


def kernel_seconds() -> float:
    started = perf_counter()
    kernel()
    return perf_counter() - started


def mean_kernel_seconds(samples: int) -> float:
    """Mean of `samples` kernel runs, after one untimed warm-up run."""
    kernel()
    return statistics.fmean(kernel_seconds() for _ in range(samples))


def scaled(seconds: float, kernel_mean: float) -> float:
    """`seconds` measured at `kernel_mean`, moved to the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_mean


class Probe:
    """Times the kernel every `PERIOD` seconds while `measure` runs a block."""

    def __init__(self):
        self.samples: list[float] = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)
        kernel()

    def _tick(self, signum, frame):
        if self._armed:
            self.samples.append(kernel_seconds())
            signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def measure(self, block):
        """Run `block()`; returns (its result, seconds without the probes,
        mean kernel seconds over the block)."""
        self.samples = [kernel_seconds()]
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        started = perf_counter()
        try:
            out = block()
        finally:
            # a probe that runs before `ended` is inside the timed span
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            ended = perf_counter()
        inside = self.samples[1:]
        self.samples.append(kernel_seconds())
        return out, ended - started - sum(inside), statistics.fmean(self.samples)
