"""How fast the CPU ran while a worker process worked.

The benchmark's reference machine is a VM whose virtual CPUs share
physical cores with other tenants.  For seconds to minutes at a time a
virtual CPU runs up to twice as slow, and the two CPUs slow down
independently: cold builds of one site took anywhere from 2.7 s to 6.2 s
within ten minutes.  A :class:`SpeedSampler` measures that slowdown where
it happens, in the process doing the work and on its CPU: a daemon thread
that every ``PERIOD_S`` runs a fixed pure-Python kernel and times it in
its own thread's CPU time, so waiting for the interpreter lock or for
another thread does not count.

:class:`CpuSpeed` turns the samples around an interval into the CPU's
speed relative to the reference (``REFERENCE_S`` per kernel), and every
timing the benchmark reports is a wall time multiplied by that speed:
the time the work would have taken on the reference CPU running
undisturbed.  The raw times are kept in each result file.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Sequence

#: time between two kernel runs; with a kernel of about 0.15 ms the
#: sampler takes about 1% of the CPU
PERIOD_S = 0.02
#: thread CPU time of one kernel run on the reference CPU, undisturbed
REFERENCE_S = 150e-6
#: an interval with fewer samples than this is judged by this many
#: samples around its middle (the CPU's speed changes within 0.1 s)
MIN_SAMPLES = 5

#: the CPUs this process may use, read before it pins itself to one
CPUS = sorted(os.sched_getaffinity(0))

_TABLE = {"k%d" % i: 0 for i in range(64)}


def kernel() -> int:
    """Fixed interpreter work of the kind the pipeline does: string
    formatting, dict reads and writes, integer arithmetic.  It creates no
    object the garbage collector tracks, so it never sets off a collection
    whose cost would depend on the worker's heap."""
    table = _TABLE
    total = 0
    for i in range(400):
        key = "k%d" % (i & 63)
        table[key] = (table[key] + i) & 0xFFFF
        total += len(key)
    return total


class SpeedSampler(threading.Thread):
    """Times :func:`kernel` every ``PERIOD_S`` until the process exits.

    ``samples`` holds ``(t, seconds)`` pairs in time order: ``t`` is the
    ``time.perf_counter`` reading when the run ended (the same clock in
    every process), ``seconds`` the run's thread CPU time."""

    def __init__(self) -> None:
        super().__init__(name="bench-speed-sampler", daemon=True)
        self.samples: List[List[float]] = []

    def run(self) -> None:
        while True:
            time.sleep(PERIOD_S)
            start = time.thread_time()
            kernel()
            elapsed = time.thread_time() - start
            self.samples.append([time.perf_counter(), elapsed])


def pin_to_cpu(last: bool) -> None:
    """Keep this process (and the threads it starts later) on one CPU, the
    first or the last it may use, so a sampler and the work it calibrates
    share a CPU.  Worker processes take the first, the load generator the
    last."""
    os.sched_setaffinity(0, {CPUS[-1] if last else CPUS[0]})


class CpuSpeed:
    """One worker's samples, asked how fast its CPU ran at given times."""

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        self.times = [t for t, _ in samples]
        self.seconds = [seconds for _, seconds in samples]

    def over(self, start: float, end: float) -> float:
        """The speed over ``[start, end]`` relative to the reference:
        ``REFERENCE_S`` over the mean kernel time of the samples taken
        then, or of the ``MIN_SAMPLES`` samples around the interval's
        middle if it holds fewer (a read lasts less than a period)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            low = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            high = low + MIN_SAMPLES
        chosen = self.seconds[low:high]
        if not chosen:
            return 1.0
        return REFERENCE_S * len(chosen) / sum(chosen)
