"""Machine-speed calibration timed next to every measured job.

On a shared host the speed of the whole machine drifts by tens of percent
over tens of seconds, and a job and a fixed loop run right after it slow
down together.  Every measured time is therefore reported scaled by
``REF_S / c``, where ``c`` is the time of the fixed loop below, measured
right before and right after it in the same process for about a tenth of
its duration, and ``REF_S`` is that loop's time on the machine the
benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11,
numpy 2.4).  The scaled value reads as seconds on that machine at a
steady speed; the raw seconds are kept in the run record as well.

The loop mixes what the package spends its time on: an elementwise
transcendental over a zeros-by-grid block (the branch kernel), a sort of a
large array, and float parsing plus tuple building and sorting in Python
(the CSV readers).  It uses only the benchmark's own data, so no change to
the package can change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.024


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 2601))
        self.y = rng.uniform(0.5, 2.0, (64, 1))
        self.big = rng.standard_normal(200_000)
        self.text = [repr(v) for v in rng.standard_normal(20_000).tolist()]
        self.last: float | None = None

    def measure(self, budget_s: float) -> float:
        """Median seconds per pass over passes filling ``budget_s`` (at least one)."""
        times = [self.one_pass()]
        while sum(times) < budget_s:
            times.append(self.one_pass())
        return statistics.median(times)

    def around(self, job_s: float) -> float:
        """Calibration for a job that just took ``job_s``.

        Measures for a tenth of the job's time and returns the mean of this
        and the previous measurement, which was taken right before the job.
        """
        after = self.measure(0.1 * job_s)
        before = after if self.last is None else self.last
        self.last = after
        return (before + after) / 2

    def one_pass(self) -> float:
        """Seconds one pass of the loop takes now."""
        t0 = perf_counter()
        for _ in range(4):  # in blocks, so the loop adds little to peak RSS
            a = np.arctan(self.x / self.y)
            a += np.where(a < 0.0, np.pi, 0.0)
            float(a.sum())
        float(np.sort(self.big)[0])
        pts = sorted((float(s), 1.0, 1) for s in self.text)
        del pts
        return perf_counter() - t0
