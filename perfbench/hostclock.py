"""Host speed, sampled while a command runs.

On a shared machine the same work can take 1.0x to 1.7x its best time,
in phases of one to ten seconds, and CPU time moves with wall time, so
neither corrects it.  A sampler thread in the command's own process (both
pinned to one CPU) runs three fixed probes in turn, one every
``INTERVAL_S``: a pure-Python integer loop, small numpy matrix products
of the size a logit fit uses, and scattered reads from a 4 MB list.  The
host factor is the geometric mean, over the three probes, of their mean
time divided by ``REFERENCE_S``, raised to ``EXPONENT``; a time divided by
it is in reference seconds, i.e. what it would have been on a host where
the probes take their reference times.  The probes use numpy and the
standard library only, never the program, so a change to the program
cannot move them.  The sampler holds the GIL while probing, which costs
the command a few percent of its wall time, the same on every run.
"""

from __future__ import annotations

import math
import os
import random
import resource
import threading
import time

import numpy as np

INTERVAL_S = 0.04
#: Probe times (s) on an idle core of a two-core x86-64 host, Python 3.11.
REFERENCE_S = {"python": 1.26e-3, "numpy": 4.3e-4, "memory": 1.45e-3}
#: The commands slow down more than the probes when the host is busy: over
#: 5 runs of 3-6 repetitions per workload at probe factors 1.1-2.1 on that
#: host, run medians spread least (1.4-2.0% sd, against 3.2-4.5% with 1.0)
#: when the probes' factor was raised to a power of 1.2-1.3, on all three
#: workloads alike.
EXPONENT = 1.25


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads it starts) to its last allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Sampler thread; ``start`` before the timed work, ``stop`` after it."""

    def __init__(self):
        rng = random.Random(0)
        before = _max_rss_mb()
        self._table = list(range(1 << 19))
        self._reads = [rng.randrange(len(self._table)) for _ in range(6000)]
        #: Resident memory the probes hold (about 19 MB), for callers that
        #: report the process's peak memory without it.
        self.rss_mb = _max_rss_mb() - before
        self._x = np.random.default_rng(0).standard_normal((40, 8))
        self._y = np.ones(40)
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_S}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _python(self) -> None:
        s = 0
        for i in range(20000):
            s += i * i

    def _numpy(self) -> None:
        x, y = self._x, self._y
        for _ in range(40):
            p = 1.0 / (1.0 + np.exp(-(x @ np.ones(8))))
            x.T @ (p - y)
            (x * p[:, None]).T @ x

    def _memory(self) -> None:
        table, s = self._table, 0
        for i in self._reads:
            s += table[i]

    def _run(self) -> None:
        probes = (("python", self._python), ("numpy", self._numpy), ("memory", self._memory))
        clock, k = time.perf_counter, 0
        while not self._stop.wait(INTERVAL_S):
            name, probe = probes[k % len(probes)]
            t = clock()
            probe()
            self.samples[name].append(clock() - t)
            k += 1

    def start(self) -> "HostClock":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; return the host factor (1.0 when nothing was sampled)."""
        self._stop.set()
        self._thread.join()
        logs = [math.log(ratio) for ratio in self.ratios().values()]
        return math.exp(EXPONENT * sum(logs) / len(logs)) if logs else 1.0

    def ratios(self) -> dict[str, float]:
        """Mean time of each probe over its reference time."""
        return {
            name: sum(s) / len(s) / REFERENCE_S[name]
            for name, s in self.samples.items()
            if s
        }
