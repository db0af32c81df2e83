"""Samples how fast the host runs while the timed operations run.

The shared host's speed changes by up to about 1.8 times, in phases that
last from a fraction of a second to many seconds, and not every kind of
work slows by the same factor: a Python loop of small numpy calls slows
most, sampling from large arrays least. A timer interrupts the timed
operations every TICK_S and runs a small fixed sample of the kinds of work
the workload mostly does. The samples use only numpy and the standard
library, so no change to sdckit changes their time. Each runs twice on a
tick and only the second, warm run is timed, so that the time reflects the
host's speed and not the caches the operations left behind.

run.py divides the operations' own time (without the samples) by the mean
slowdown of the samples, which states it in seconds on the reference host.
"""

from __future__ import annotations

import csv
import io
import signal
import time
from collections import Counter

import numpy as np

TICK_S = 0.1

# Seconds each kind of sample takes on the reference host (2-vCPU VM, Intel
# Xeon, Python 3.11, numpy 2.4) in its fast phase: the 10th percentile of the
# warm sample times taken during the timed operations of 48 worker processes,
# 12 per workload. Scaled times are stated in seconds on that host.
NOMINAL_S = {
    "loop": 0.00099,
    "pairwise": 0.00095,
    "text": 0.00069,
    "laplace": 0.00189,
}


class _Sample:
    """A fixed piece of each kind of work."""

    def __init__(self):
        rng = np.random.default_rng(54321)
        self.rng = rng
        self.dist = rng.integers(0, 4, size=(160, 200)).astype(float)
        self.points = rng.normal(size=(160, 3))
        self.values = rng.integers(0, 90, size=(300, 3)).tolist()

    def loop(self) -> None:
        """The linkage tie loop: per record, the nearest ties, one picked at random."""
        rng = self.rng
        for row in self.dist:
            ties = np.flatnonzero(row == row.min())
            int(ties[0] if ties.size == 1 else ties[rng.integers(ties.size)])

    def pairwise(self) -> None:
        """Dense squared distances, as in MDAV and linkage."""
        p = self.points
        float(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum())

    def text(self) -> None:
        """Writing and parsing CSV rows and counting classes, as for tables and k-anonymity."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        for i, row in enumerate(self.values):
            writer.writerow([f"P{i:06d}", *row])
        Counter((r[1], str(int(r[2]) // 10)) for r in csv.reader(io.StringIO(buf.getvalue())))

    def laplace(self) -> None:
        """Laplace sampling and a histogram over an array larger than the L2 cache."""
        np.histogram(self.rng.laplace(0.0, 1.0, 50_000), bins=64)


class SpeedProbe:
    """Context manager that samples the host's speed every TICK_S of wall time.

    ``kinds`` names the samples (keys of NOMINAL_S) that stand for the
    workload. ``probe_s`` is the time the samples took, to be taken out of
    the measured interval; ``slowdown()`` is the mean of sample time over
    nominal time, each tick weighted by the interval it stands for.
    """

    def __init__(self, kinds):
        sample = _Sample()
        self.parts = [getattr(sample, kind) for kind in kinds]
        self.nominal = sum(NOMINAL_S[kind] for kind in kinds)
        self.samples = []  # (seconds of operations since the previous tick, slowdown)
        self.probe_s = 0.0
        self.last = 0.0
        self.previous = None
        self._run()

    def _run(self) -> None:
        for part in self.parts:
            part()

    def _tick(self, signum=None, frame=None):
        begin = time.perf_counter()
        self._run()
        start = time.perf_counter()
        self._run()
        end = time.perf_counter()
        self.samples.append((begin - self.last, (end - start) / self.nominal))
        self.probe_s += end - begin
        self.last = end

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._tick()  # the tail since the last tick, and one sample at least
        return False

    def slowdown(self) -> float:
        return sum(w * r for w, r in self.samples) / sum(w for w, _ in self.samples)
