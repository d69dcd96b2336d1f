"""In-process machine-speed reference for timing on a shared host.

On a host shared with other tenants the speed of a core drifts by a factor
of up to two over seconds, and Python bytecode and numpy kernels slow down
together.  While a SpeedReference is active, SIGALRM fires every PERIOD_S
seconds and times a fixed kernel (a pure-Python loop, numpy calls on tiny
arrays and exponentials over a few thousand entries: the kinds of work the
solver does) in the same process and on the same core as the measured code.
normalize() rescales a measured interval by REFERENCE_S over the kernel's
median time around that interval, so an interval reads as the time it would
take at the reference speed.  The kernel uses nothing from the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# Normalised times read as if every sample took exactly this long: a round
# figure near a sample's time during runs on the 2-core Xeon host the bounds
# were set on.
REFERENCE_S = 250e-6
# Intervals shorter than this borrow the samples just around them.
_MIN_WINDOW_S = 0.2

_EXP_INPUT = np.linspace(-50.0, 0.0, 4096)
_TINY = np.linspace(-1.0, 1.0, 20)[:, None]


def kernel() -> None:
    total = 0
    for i in range(1000):
        total += i * i
    for _ in range(10):
        dev = _TINY - _TINY.mean(axis=0)
        np.clip(dev, -0.5, 0.5)
        np.exp(3.0 * dev).sum()
    for _ in range(2):
        np.exp(_EXP_INPUT).sum()


class SpeedReference:
    """Context manager that samples the kernel's time on a wall-clock timer."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._cost: list[float] = []

    def __enter__(self) -> "SpeedReference":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # The first pass refills the caches the measured code evicted; only
        # the second is timed, so the sample tracks the host's speed and not
        # the measured code's memory footprint.
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._at.append(end)
        self._cost.append(end - start)

    @property
    def samples(self) -> int:
        return len(self._cost)

    def kernel_s_p50(self) -> float:
        return float(np.median(self._cost)) if self._cost else REFERENCE_S

    def normalize(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Seconds each (start, end) interval would take at the reference speed.

        The sampler's own time inside an interval is subtracted first.
        """
        at, cost = np.asarray(self._at), np.asarray(self._cost)
        out = []
        for start, end in intervals:
            spent = cost[(at > start) & (at <= end)].sum()
            pad = max(0.0, (_MIN_WINDOW_S - (end - start)) / 2)
            near = cost[(at > start - pad) & (at <= end + pad)]
            speed = np.median(near) if near.size else self.kernel_s_p50()
            out.append(float((end - start - spent) * REFERENCE_S / speed))
        return out
