"""Host speed, read from a fixed probe timed between and inside operations.

The benchmark runs on a few vCPUs of a shared host.  Other tenants slow the
same call by up to 65% for spells of seconds to minutes (measured on a
2-vCPU Xeon host), and a run of 30 s can fall wholly inside one such spell,
so raw timings of one commit spread more between runs than a regression
bound allows.  The probe is a fixed piece of work that never calls the
program: a ``Fraction`` sum (the exact builder's kind of work) and one
batched ``eigvalsh`` (the Monte Carlo checker's kind).  It is timed in the
benchmark's own thread, never beside the program, so it reads the host and
not the program's load: between operations, and every ``EVERY_S`` seconds
inside a long library call, from a timer signal (the probe's time is then
taken out of the call's timing).  Its time over the probe's time at full
speed is the host's slowdown at that moment, and the end-to-end timings are
divided by the mean slowdown over their interval.

Because the probe does not touch the program, a change to the program moves
the scaled timings exactly as it moves the raw ones; only the host's speed
is taken out.  Raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, List, Optional

import numpy as np

# The probe's time on the 2-vCPU Xeon host of the ROADMAP baseline in its
# fastest spells (slow spells read up to 1.65 times as long).
FULL_SPEED_S = 0.0048
# Longest time between two readings during a measured loop.
EVERY_S = 0.5

_rng = np.random.default_rng(0)
_z = _rng.standard_normal((3000, 3, 3)) + 1j * _rng.standard_normal((3000, 3, 3))
_HERMITIAN = _z + _z.conj().transpose(0, 2, 1)


def _work() -> None:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    np.linalg.eigvalsh(_HERMITIAN)


def probe_seconds() -> float:
    """Faster of two timings of the probe, so one interrupt does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Probe readings of one run and the slowdown they give over any interval."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.readings: List[float] = []
        self.probing_s = 0.0  # total time spent probing, to take out of timings
        self._busy = False
        self._smoothed: Optional[np.ndarray] = None

    def record(self, at: float, seconds: float) -> None:
        self.times.append(at)
        self.readings.append(seconds)
        self._smoothed = None

    def probe(self) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            seconds = probe_seconds()
            t1 = time.perf_counter()
            self.record((t0 + t1) / 2, seconds)
            self.probing_s += t1 - t0
        finally:
            self._busy = False

    def maybe_probe(self, gap: float = EVERY_S) -> None:
        """Probe when the last reading is older than ``gap`` seconds."""
        if not self.times or time.perf_counter() - self.times[-1] >= gap:
            self.probe()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every ``EVERY_S`` seconds inside the block as well, from a
        timer signal.  A long numpy call delays a reading until it returns.
        Signals reach only the main thread, where the benchmark runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def smoothed(self) -> np.ndarray:
        """Median of each reading and its two neighbours."""
        if self._smoothed is None:
            r = self.readings
            self._smoothed = np.array([statistics.median(r[max(0, i - 1):i + 2]) for i in range(len(r))])
        return self._smoothed

    def slowdown(self, start: float, end: float) -> float:
        """Mean over [start, end] of the smoothed probe time, linearly
        interpolated between readings, over the probe's full-speed time."""
        if not self.times:
            raise ValueError("no probe readings")
        times = np.asarray(self.times)
        inside = times[(times > start) & (times < end)]
        xs = np.concatenate(([start], inside, [end]))
        ys = np.interp(xs, times, self.smoothed())
        if end > start:
            mean = float(((ys[1:] + ys[:-1]) / 2 * np.diff(xs)).sum() / (end - start))
        else:
            mean = float(ys[0])
        return mean / FULL_SPEED_S

    def describe(self) -> str:
        if not self.readings:
            return "host probe: no readings"
        s = sorted(self.readings)
        return (f"host probe: p50 {statistics.median(s) * 1e3:.4g} ms, range {s[0] * 1e3:.4g}-{s[-1] * 1e3:.4g} ms"
                f" (n={len(s)}); full speed {FULL_SPEED_S * 1e3:.4g} ms")
