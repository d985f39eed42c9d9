"""The machine's current speed, sampled while a workload runs.

The shared host the benchmark was built on shifts between speed states that
last from seconds to minutes: one pretrain step took 3.6 ms in one state and
5.7 ms in the other, so raw wall times from two runs of the same code
differed by half. ``SpeedSampler`` times a fixed numpy reference kernel,
which uses no artbank code, every ``PERIOD_S`` seconds from a ``SIGALRM``
handler. An operation's time divided by the kernel's time around it is a
figure that such shifts cancel out of, while any change to the program
moves only the numerator.

``clock`` is ``time.perf_counter`` minus the time spent in the handler, so
operations timed with it exclude the sampling.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
WINDOW_S = 0.5  # samples this far before or after an operation count for it

# One conv of the denoiser, four times: an im2col of a 32-channel 16x16 map,
# a 32 x 288 by 288 x 256 GEMM and an elementwise transcendental.
_RNG = np.random.Generator(np.random.PCG64(12345))
_X = _RNG.standard_normal((32, 18, 18))
_W = _RNG.standard_normal((32, 288)) * 0.05

_spent_s = 0.0


def clock() -> float:
    return time.perf_counter() - _spent_s


def _kernel() -> float:
    acc = 0.0
    for _ in range(4):
        cols = np.empty((32, 9, 256))
        k = 0
        for dy in range(3):
            for dx in range(3):
                cols[:, k, :] = _X[:, dy:dy + 16, dx:dx + 16].reshape(32, -1)
                k += 1
        acc += float(np.tanh(_W @ cols.reshape(288, 256)).sum())
    return acc


def reference_ms(repeats: int = 3) -> float:
    """Fastest of ``repeats`` back-to-back runs of the reference kernel, in ms."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


class SpeedSampler:
    """Samples the reference kernel while the ``with`` block runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ref_ms: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        global _spent_s
        t0 = time.perf_counter()
        self.ref_ms.append(reference_ms())
        self.times.append(t0)
        _spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def around(self, start: float, end: float) -> float:
        """Median kernel time, in ms, of the samples taken within
        ``WINDOW_S`` of the ``perf_counter`` interval [start, end]."""
        near = [r for t, r in zip(self.times, self.ref_ms)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            nearest = min(range(len(self.times)),
                          key=lambda i: min(abs(self.times[i] - start), abs(self.times[i] - end)))
            near = [self.ref_ms[nearest]]
        return statistics.median(near)
