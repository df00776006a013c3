"""Timings scaled to a reference machine speed.

On a shared host the same code runs up to half again slower for stretches
of ten seconds or more while other tenants are busy, so raw wall times from
separate runs are not comparable.  A timer signal interrupts the measured
process every ``PERIOD_S`` seconds and times a fixed calibration kernel: a
small mix of Python object churn and small matrix products, like the
program's own inner loops, written here so that no change to the program can
change it.  An operation's time, less any calibration inside it, is scaled
by ``REF_S`` over the kernel's median duration around that operation.  On a
quiet host the scaled time equals the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# The kernel's duration on a quiet 2-vCPU x86-64 host (OpenBLAS, one thread).
REF_S = 1.45e-3
WINDOW_S = 0.5  # calibration samples this close to an operation describe its speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 32))
_W = _rng.standard_normal((32, 32))
_B = _rng.standard_normal(32)


def kernel() -> float:
    """Small matrix products and Adam-like updates, then small-object churn."""
    m = np.zeros_like(_W)
    v = np.zeros_like(_W)
    for _ in range(25):
        h = np.maximum(_X @ _W + _B, 0.0)
        g = h.T @ _X
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = _W - 1e-3 * m / (np.sqrt(v) + 1e-8)
    acc = float(w.sum())
    for _ in range(20):
        x = np.array([(j * 0.01, j & 1) for j in range(64)], dtype=np.float64)
        acc += float(np.maximum(x @ _W[:2], 0.0).sum())
    return acc


class Calibrator:
    """Samples the kernel's duration from a timer signal while running."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample's start
        self.took: list[float] = []
        self.spent = 0.0  # total time taken by samples so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(dt)
        self.spent += dt

    def start(self) -> None:
        kernel()  # the first call pays for cold caches; keep it out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float) -> float:
        """REF_S over the kernel's median duration near [t0, t1]: 1.0 on a
        quiet host, below 1.0 while the host is slowed down."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:  # no sample close by: take the nearest one
            if not self.at:
                raise RuntimeError("no calibration samples were taken")
            k = min(max(lo - 1, 0), len(self.at) - 1)
            if lo < len(self.at) and abs(self.at[lo] - t0) < abs(self.at[k] - t0):
                k = lo
            lo, hi = k, k + 1
        return REF_S / statistics.median(self.took[lo:hi])
