"""Machine-speed probe: one fixed piece of work, timed every 50 ms of a run.

On a shared host the same computation can take 1.5 to 2 times as long from
one minute to the next, and a run of 20 s may sit wholly in a slow or a fast
spell.  The probe samples that speed on the worker's own core, at the same
moments as the jobs: a SIGALRM handler runs the probe between two bytecodes
of whatever the main thread is doing, so each job holds several samples.
A job's cost in probes is its time, net of the probe runs inside it, divided
by the median probe time sampled during it.  The probe is the same work on
every commit, so the cost moves with codlib and not with the host.

In-process, the probe is a fixed arithmetic loop.  Random reads over a few
MiB, or object-heavy code, followed the host no better on `identify` and
worse on `oracle`.  The `cli` workload spends most of its time
starting Python processes and importing numpy, which an in-process probe
does not follow at all.  There the probe is such a start-up itself, taken
twice per job (`periodic=False`), and the whole process tree is held on one
CPU, so probe and commands run on the same core.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time
from statistics import median

PERIOD_S = 0.05


def loop_probe():
    """A fixed arithmetic loop; about 1.5 ms."""

    def work():
        s = 0
        for i in range(12000):
            s += i * i % 7
        return s

    return work


def start_probe():
    """Start a Python process that imports numpy, as every CLI command does; about 0.2 s."""
    cmd = [sys.executable, "-c", "import numpy"]

    def work():
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)

    return work


class Probe:
    def __init__(self, work, periodic: bool):
        self.work = work
        self.periodic = periodic
        self.starts: list[float] = []
        self.times: list[float] = []
        self._old = None

    def sample(self) -> None:
        """Time one run of the probe."""
        t0 = time.perf_counter()
        self.work()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self.work()  # untimed: page in what the probe touches before the first sample
        if self.periodic:
            self._old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def _within(self, t0: float, t1: float) -> slice:
        """Samples that ran between t0 and t1.

        Samples run in the main thread, between two of its bytecodes, so a
        sample lies wholly inside or wholly outside an interval whose ends
        the main thread read with perf_counter.
        """
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def busy_s(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran between t0 and t1."""
        return sum(self.times[self._within(t0, t1)])

    def sample_s(self, t0: float, t1: float) -> float:
        """Median probe time between t0 and t1, or over the whole run if none fell there."""
        times = self.times[self._within(t0, t1)] or self.times
        return median(times)
