"""Machine-speed calibration, interleaved with the timed work.

The speed of the shared 2-core host these figures come from changes by up to
2x within a second and by 20-40 % over minutes, for every process alike: the
same stride-1 run read 81 to 133 packets/s. A short fixed kernel, run right
before every timed call, slows down with the host; timed work alternated with
it at a fine grain kept a constant ratio to it (1.10-1.15) while both moved
by 1.75x. Every timed call is therefore divided by the host's slowdown
measured by the kernel runs just around it, against a nominal kernel time, so
figures read as on a host running at the nominal speed.

Short calls that follow each other (ingest) get one kernel run before each;
a long call (reading, writing, one simulation) gets a burst on each side.

Times are the process's CPU time, not wall time: the host also takes the CPU
away for tens of milliseconds at a time (seen as single ingest calls of
35 ms wall and 8 ms CPU), which no kernel run beside the call can see. The
program is single-threaded; a change that spread work over threads would
show its total CPU time here, not its wall time.

The kernel does the kinds of work the tracker does -- stacking a list of small
complex vectors, a 3x3 covariance and eigh, a complex steering scan, a small
least-squares solve, a Python loop -- and calls nothing in csitrack, so no
change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Kernel time that reported times are scaled to: about its time when the
#: 2-core host the reference figures come from runs at full speed (runs there
#: typically measure 1.2-1.5x this).
NOMINAL_S = 2.0e-4
#: Kernel runs on each side of a call that its slowdown is the median of.
HALF_WINDOW = 2

_rng = np.random.default_rng(0)
_VECTORS = [_rng.standard_normal(3) + 1j * _rng.standard_normal(3) for _ in range(100)]
_GRID = np.arange(0.0, 2.0 * np.pi, np.radians(8.0))
_ANTENNAS = np.array([[0.015, 0.0], [-0.0075, 0.013], [-0.0075, -0.013]])
_MATRIX = _rng.standard_normal((3, 2)) + 1j * _rng.standard_normal((3, 2))


def _kernel() -> float:
    window = np.array(_VECTORS).T
    covariance = window @ window.conj().T / window.shape[1]
    _, vectors = np.linalg.eigh(covariance)
    directions = np.vstack([np.cos(_GRID), np.sin(_GRID)])
    steering = np.exp(-2j * np.pi * ((_ANTENNAS - _ANTENNAS[0]) @ directions) / 0.06)
    total = float(np.min(np.sum(np.abs(vectors[:, :1].conj().T @ steering) ** 2, axis=0)))
    weights, *_ = np.linalg.lstsq(_MATRIX, _VECTORS[0], rcond=None)
    total += abs(weights[0])
    for vector in _VECTORS[:20]:
        total += abs(vector[0] * vector[1].conjugate())
    return total


@dataclass(frozen=True)
class Segment:
    """Seconds one timed call took, and either the index of the kernel run
    before it or, for a long call, the slowdown measured around it."""

    seconds: float
    mark: int = -1
    slowdown: float = 0.0


class Calibration:
    """Kernel run times, in the order they were taken through a run."""

    def __init__(self):
        self.kernel_times = []

    def tick(self, runs=1) -> int:
        """Run the kernel ``runs`` times; return the index of the last run."""
        for _ in range(runs):
            start = time.process_time()
            _kernel()
            self.kernel_times.append(time.process_time() - start)
        return len(self.kernel_times) - 1

    def measure(self, fn, *args):
        """Run the kernel once, then time ``fn(*args)``: for short calls
        that follow each other. The next measure() (or a closing tick())
        runs the kernel after it. Returns (result, Segment)."""
        mark = self.tick()
        start = time.process_time()
        result = fn(*args)
        return result, Segment(time.process_time() - start, mark)

    def measure_long(self, fn, *args):
        """Time ``fn(*args)`` between two bursts of kernel runs.

        The first runs after heavy work read slow (cold caches), so only the
        second half of each burst counts. Returns (result, Segment).
        """
        before = self.kernel_times[self.tick(2 * HALF_WINDOW) + 1 - HALF_WINDOW:]
        start = time.process_time()
        result = fn(*args)
        elapsed = time.process_time() - start
        after = self.kernel_times[self.tick(2 * HALF_WINDOW) + 1 - HALF_WINDOW:]
        return result, Segment(elapsed, slowdown=statistics.median(before + after) / NOMINAL_S)

    def slowdown(self, segment=None) -> float:
        """How much slower than nominal the host ran around ``segment`` (over
        the whole run without it): divide times by it."""
        if segment is None:
            return statistics.median(self.kernel_times) / NOMINAL_S
        if segment.slowdown:
            return segment.slowdown
        mark = segment.mark
        window = self.kernel_times[max(0, mark + 1 - HALF_WINDOW):mark + 1 + HALF_WINDOW]
        return statistics.median(window) / NOMINAL_S

    def seconds(self, segments) -> float:
        """Total time of ``segments`` at the nominal host speed."""
        return sum(s.seconds / self.slowdown(s) for s in segments)


def unscaled(segments) -> float:
    return sum(s.seconds for s in segments)
