"""Host-speed calibration: fixed loops that do not touch mkdvlab.

The benchmark's host is a shared VM whose speed drifts by tens of percent
over seconds and minutes.  A run times some of these loops right before
and right after each timed region, which measures how fast the host was
just then; the region's time is scaled by ``reference / measured``, so
that it reads as seconds at the reference speed below.  mkdvlab code never
runs inside a loop, so a change to mkdvlab moves the scaled figures by
exactly as much as it moves the raw ones.

Each kernel resembles one kind of work the workloads do: interpreted
Python, small and large FFTs, and memory-bound array arithmetic.  Each
workload names the kernels that match its own work.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

#: seconds each kernel takes on the reference host in its fast spells
#: (2-core Intel Xeon VM at 2.1 GHz, numpy 2.4.6, scipy 1.17.1, python
#: 3.11.7).  They only fix the unit of the scaled figures, so they never
#: change: changing them would shift every recorded figure.
REFERENCE_S = {
    "python": 0.050,
    "fft": 0.040,
    "memory": 0.055,
}

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal(132) + 0j
_LARGE = _RNG.standard_normal(2058) + 0j


def _python() -> None:
    table: dict[int, int] = {}
    for i in range(330_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * 3


def _fft() -> None:
    for _ in range(2_500):
        scipy.fft.ifft(scipy.fft.fft(_SMALL))
    for _ in range(250):
        scipy.fft.ifft(scipy.fft.fft(_LARGE))


def _memory() -> None:
    # allocated here, so that the process's peak memory before the first
    # calibration does not include it
    values = np.linspace(-1.0, 1.0, 1_000_000)
    for _ in range(12):
        np.sqrt(values * values + 1.0)


class Calibration:
    """Times a workload's kernels around each timed region; ``scale`` turns
    the region's raw time into seconds at the reference speed."""

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = kernels
        self.reference_s = sum(REFERENCE_S[name] for name in kernels)
        #: every measurement of the run, in order: seconds per kernel
        self.samples: list[dict[str, float]] = []

    def measure(self) -> float:
        """Run each kernel once; keep the time of each, return their sum."""
        times = {}
        for name in self.kernels:
            began = time.perf_counter()
            KERNELS[name]()
            times[name] = time.perf_counter() - began
        self.samples.append(times)
        return sum(times.values())

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, given the kernels' time
        measured just before and just after it."""
        return seconds * self.reference_s / (0.5 * (before + after))


KERNELS = {"python": _python, "fft": _fft, "memory": _memory}
