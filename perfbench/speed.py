"""Machine-speed reference: times reported at a fixed reference speed.

The 2-vCPU machine of the reference figures is shared with other tenants.
Its speed changes by up to 70% between states that last tens of seconds:
the same round of weil_direct calls took 0.10 s in one state and 0.17 s
in the next.  Plain wall times of whole 25 s runs therefore differ by
15-30% for unchanged code.

A run times ``kernel`` every half second of the run, between library
calls, and once at its end.  ``kernel`` is a fixed piece of work that does
not touch latzeta.  Each call's time is multiplied by ``NOMINAL_S`` / (mean
of the last kernel time taken before the call and the first after it).  The
result is in seconds at the speed where the kernel takes ``NOMINAL_S``,
which was its median time on that machine.  The speed of those two
samples follows the machine's changes within a run: on ten seeds of
``weil-integral``, the spread of ``calls_per_s`` over runs was 0.15 with
one scale per run (the run's median kernel time) and 0.03 with the
bracketing samples.

The kernel allocates nothing: its arrays and output buffers are made once
at import.  So what latzeta allocated or freed before a sample (glibc's
mmap threshold rises after a large block is freed) cannot change the
kernel's time, and a change to latzeta moves the reported times as it
moves the wall times.  Checked on the reference machine with ten pairs
of back-to-back processes, one of which first freed a 32 MB array as
``_rect_fixed`` does: the median difference of the kernel's median time
was 1%, and the pairs that did not straddle a change of machine speed
differed by at most 4%, in either direction.  A change of machine speed
moves both the kernel and the calls, and cancels out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median time of ``kernel`` on the reference machine, in seconds
NOMINAL_S = 0.035

#: seconds between two samples of the kernel during a run
PERIOD_S = 0.5

_SMALL = np.linspace(1.0, 2.0, 4096) + 0.5j
_LARGE = np.linspace(1.0, 2.0, 1 << 16) + 0.5j
_SMALL_OUT = np.empty_like(_SMALL)
_LARGE_OUT = np.empty_like(_LARGE)


def kernel() -> float:
    """About 10 ms each of interpreted Python, numpy calls on small arrays,
    and numpy on a 1 MB array: the mix of work in latzeta's calls.  The
    arrays are kept small so the kernel adds little to peak memory, and
    written in place so the kernel allocates no array."""
    s = 0.0
    for i in range(200_000):
        s += i * 0.5
    for _ in range(200):
        s += float(np.power(_SMALL, -3, out=_SMALL_OUT).sum().real)
    for _ in range(8):
        s += float(np.power(_LARGE, -3, out=_LARGE_OUT).sum().real)
    return s


class Meter:
    """Times ``kernel`` whenever ``PERIOD_S`` seconds have passed since the
    last sample."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_sample(self):
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference seconds, over the run."""
        return NOMINAL_S / statistics.median(self.samples)

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` measured between sample ``mark`` and the next one, in
        reference seconds at the speed of those two samples."""
        return seconds * NOMINAL_S / statistics.mean(self.samples[mark : mark + 2])
