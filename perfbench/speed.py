"""Host-speed reference for the end-to-end wall time.

The benchmark runs on a shared host whose speed drifts: the same pass can
take 1.6 times as long a minute later (README.md, Noise).  While an
untraced pass runs, an interval timer runs three short fixed kernels every
``PERIOD_S`` seconds.  Each kernel stands for one kind of work nclp does:
tiny dense linear algebra, chains of small complex array operations, and
memory traffic beyond the L2 cache.  The geometric mean of the kernels'
mean times is the pass's reference time; scaling the pass time by
``NOMINAL_REF_S / reference time`` takes out the host's drift and leaves
changes in nclp's own cost.  The kernels call no nclp code.

Python runs a signal handler in the main thread between bytecodes, so the
kernels never run inside a numpy or BLAS call.  Their time is subtracted
from the pass time.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# The reference time, in seconds, at the tuning host's usual speed (a
# 2-vCPU Intel Xeon VM).  It sets the scale of the corrected wall time;
# changes in nclp's cost show in it whatever the constant is.
NOMINAL_REF_S = 5.0e-4

_A = np.eye(4) + 0.1
_C = np.eye(2) + 0.3j
_BIG = np.ones(1 << 18)         # 2 MiB


def _linalg():
    for _ in range(15):
        _A @ _A
        np.linalg.eigh(_A)


def _small_ops():
    x = _C
    for _ in range(75):
        x = (x @ _C + _C) * 0.5
        x = x.conj().T


def _memory():
    for _ in range(4):
        _BIG.sum()


KERNELS = (_linalg, _small_ops, _memory)


class SpeedSampler:
    """Samples the kernels every ``PERIOD_S`` seconds while the block runs,
    and once on entry, so that every pass has a sample."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.busy_s = 0.0           # time spent in the kernels
        self._previous = None

    def _tick(self, *_):
        start = time.perf_counter()
        for kernel, out in zip(KERNELS, self.samples):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
        self.busy_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        self.busy_s = 0.0           # the first tick runs before the timing
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref_s(self) -> float:
        """Geometric mean over the kernels of each kernel's mean time."""
        return math.exp(statistics.fmean(
            math.log(statistics.fmean(s)) for s in self.samples))
