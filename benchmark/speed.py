"""Machine-speed probe: scales measured times to a reference machine speed.

The benchmark runs on shared machines whose speed moves by half or more
within seconds and drifts over minutes, and every timing moves with it.  So
each timed interval is accompanied by a fixed piece of work, the probe,
timed at its start, at its end and, for an operation, every `PERIOD` seconds
in between (from a `SIGALRM` handler, so the samples come from the same
thread on the same CPU as the operation).  A time is reported at the
reference speed, at which the probe takes `NOMINAL_S`:

    scaled = measured * NOMINAL_S / mean(probe samples over the interval)

A program change moves the scaled time exactly as it moves the measured
time; the machine's speed moves the probe with it and cancels out.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# The probe's median time on the machine the reference numbers in README.md
# were taken on: a scaled time is the time the interval would have taken
# there.
NOMINAL_S = 0.0016
PERIOD = 0.05

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_COEFFS = _rng.standard_normal(9)


def probe() -> float:
    """Fixed work of the two kinds `burau` does, in about equal parts:
    interpreter work (integer arithmetic, dict stores) and small numpy and
    LAPACK calls.  Nothing it allocates outlives it."""
    total = 0
    table: dict = {}
    for i in range(4000):
        total += i * i % 7
        table[i & 255] = total
    for _ in range(12):
        total += float(np.abs(np.linalg.eigvals(_MATRIX)).max())
        total += float(abs(np.polyval(_COEFFS, 0.3 + 0.1j)))
    return total


def probe_once() -> float:
    """Seconds one probe takes, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, samples: list) -> float:
    """`seconds` measured while the probe took `samples`, at the reference
    speed."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)


class Speedometer:
    """Samples the probe during one interval and times the interval without
    the probes' own time.

        meter = Speedometer()
        meter.start()
        ...                          # the timed work
        seconds, samples = meter.stop()
    """

    def __init__(self, period: float = PERIOD) -> None:
        self.period = period
        self.samples: list = []
        self._spent = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        self.samples.append(probe_once())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples = []
        self._sample()
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        """Returns (seconds of the interval less the probes, probe samples)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        during = self._spent
        self._sample()
        return elapsed - during, list(self.samples)
