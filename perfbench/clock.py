"""Timings corrected for the machine's current speed.

On a shared host the speed of one core drifts: the same solve, or the same
pure-Python loop, takes up to 1.5x longer for tens of seconds at a time.
Medians of raw wall time then differ between runs by more than any useful
regression bound.

``Clock.time`` therefore runs a fixed calibration (interpreter, FFT and
elementwise numpy work, about 0.1 s) right before and after the measured
call and reports, besides the raw wall time, the wall time scaled by
``REFERENCE_S / mean calibration time``: seconds on a machine on which the
calibration takes ``REFERENCE_S``.  The calibration is the benchmark's own
code and does not change with the program, so a faster program reads
faster by the same factor.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.1

_FIELD = np.random.default_rng(0).random((32, 32, 32))


def calibration_s() -> float:
    """Wall time of one fixed unit of mixed work."""
    start = perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i
    for _ in range(24):
        np.fft.ifftn(np.fft.fftn(_FIELD))
    b = _FIELD
    for _ in range(80):
        b = np.exp(-b) * _FIELD + b
    return perf_counter() - start


class Clock:
    """Times calls; each call's scale comes from calibrations around it."""

    def __init__(self):
        self._last = calibration_s()
        self.calibrations = [self._last]

    def time(self, fn):
        """(result of fn(), wall seconds, scale) with scaled time wall * scale."""
        before = self._last
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        self._last = calibration_s()
        self.calibrations.append(self._last)
        return result, wall, 2.0 * REFERENCE_S / (before + self._last)
