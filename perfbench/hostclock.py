"""The host's speed, sampled while ops run.

The benchmark runs on a few cores of a shared host, and the speed the host
gives a core drifts, by up to 1.5x between seconds and by about a third
over minutes (see BASELINE.md).  An op time in seconds follows that drift,
so two runs of the same code can differ by more than a regression.  To take
it out, a fixed reference kernel is timed every ``PERIOD`` seconds while the
ops run.  It runs from a SIGALRM handler in the main thread, so it shares
the core, and the moment, of the op it interrupts.  An op's time in
reference units is its duration divided by the mean reference time sampled
during it (or by the latest sample before it, for an op shorter than the
period).  The handler's own time is taken out of the op's duration.  The
kernel does not call photonloc, so a change to the program moves only the
op's side of that ratio.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD = 0.25  # seconds between reference samples
_ARRAY = np.exp(1j * np.linspace(0.0, 50.0, 4096))
_VALUES = _ARRAY.real.tolist()


def reference_kernel() -> int:
    """Fixed work of a few milliseconds, in the workloads' mix: float
    formatting and joins (as the CSV and SVG writers do), interpreted
    arithmetic, and small numpy FFTs."""
    text = " ".join(f"{v:.6g},{w:.6g}" for v, w in zip(_VALUES[:1000], _VALUES[1000:2000]))
    total = 0
    for i in range(5000):
        total += i * i
    for _ in range(10):
        np.fft.ifft(np.fft.fft(_ARRAY))
    return total + len(text)


class HostClock:
    """Reference samples taken through a measured loop, as a context manager."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each reference kernel
        self.spent = 0.0   # seconds spent in the handler so far
        self.ratios = []   # each op's time in reference units
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        reference_kernel()
        self.samples.append((start, perf_counter() - start))
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference(self, start: float, end: float) -> float:
        """Mean reference time sampled within [start, end], or the latest
        sample before ``start`` when none fell inside."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return [s for t, s in self.samples if t < start][-1]
