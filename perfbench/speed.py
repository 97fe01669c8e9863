"""Host-speed gauge: a fixed reference kernel timed between trials.

The benchmark runs on shared machines whose speed drifts by a third or more
over minutes, for every process alike (CPU time drifts with wall time, so
the cause is not descheduling). The gauge times a kernel shaped like the
dominant work of a trial, one generation of neighbourhood-mutation DE on a
fixed 256-point population (pairwise distances, a stable argsort, donor
choice, mutation and crossover), at regular points of a run. Reported times
are scaled to a host on which the kernel's median is REFERENCE_KERNEL_MS:
value * REFERENCE_KERNEL_MS / this run's median. The kernel is the
benchmark's own code, so a change to doakit never moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the two-core Xeon host the bounds were set on.
REFERENCE_KERNEL_MS = 4.0
SAMPLE_INTERVAL_S = 0.1


class SpeedGauge:
    """Kernel samples of one run; ``factor`` turns a measured time into
    reference-host time."""

    def __init__(self):
        self._rng = np.random.default_rng(20250708)
        centres = self._rng.uniform((0.0, 0.0), (360.0, 90.0), size=(8, 2))
        self._population = centres[self._rng.integers(8, size=256)] + self._rng.normal(0.0, 1.0, size=(256, 2))
        self.samples_ms: list[float] = []
        self.busy_s = 0.0
        self._last = -np.inf

    def _kernel(self) -> np.ndarray:
        positions = self._population
        delta = positions[:, None, :] - positions[None, :, :]
        dist_sq = np.einsum("ijk,ijk->ij", delta, delta)
        np.fill_diagonal(dist_sq, np.inf)
        neighbours = np.argsort(dist_sq, axis=1, kind="stable")[:, :16]
        picks = np.argsort(self._rng.random(neighbours.shape), axis=1)[:, :3]
        donors = np.take_along_axis(neighbours, picks, axis=1)
        mutant = positions[donors[:, 0]] + 0.5 * (positions[donors[:, 1]] - positions[donors[:, 2]])
        return np.where(self._rng.random(positions.shape) < 0.9, mutant, positions)

    def sample(self, count: int = 1) -> list[float]:
        """Time the kernel ``count`` times; returns the new samples in ms."""
        new = []
        for _ in range(count):
            started = time.perf_counter()
            self._kernel()
            ended = time.perf_counter()
            new.append((ended - started) * 1e3)
            self.busy_s += ended - started
            self._last = ended
        self.samples_ms.extend(new)
        return new

    def due(self) -> None:
        """Take a sample when ``SAMPLE_INTERVAL_S`` has passed since the last."""
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, samples_ms=None) -> float:
        """Reference-host time per measured time, from the given samples or
        from all samples of the run."""
        return REFERENCE_KERNEL_MS / statistics.median(self.samples_ms if samples_ms is None else samples_ms)
