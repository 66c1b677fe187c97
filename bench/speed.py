"""Host speed sampling, so that timings can be put on one fixed scale.

The virtual machines this benchmark runs on change speed by up to half
over spans of seconds to minutes, and CPU time follows wall time: the code
runs slower, it does not wait.  So the time metrics are *normalised*: each
timing is scaled by how fast two fixed kernels ran at the same time, to
what it would read when they run at their ``NOMINAL_NS`` durations.  The
raw readings are reported next to them.

The kernels stand for the two kinds of work the library does: a pure
Python loop (interpreter speed) and a run of tiny numpy operations (call
overhead and small allocations).  The slowdowns do not hit both alike, so
a window's speed factor is the geometric mean of the two kernels' factors,
each ``NOMINAL_NS`` over the median of its samples in the window.  The
window is the timed interval itself, widened about its centre to at least
``MIN_WINDOW_S``: the speed changes between passes and within them, so a
battery of a few milliseconds is scaled by the speed around it, not by the
average over its pass.

``Sampler`` runs one kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
seconds, alternating between them, while it is started.  The handler costs
about one percent of the process's time, the same for every version of
the library.  It runs only between Python bytecodes, so during a long call
into compiled code the samples wait and are taken when it returns.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
MIN_WINDOW_S = 0.5

_A = np.linspace(0.5, 1.5, 9).reshape(3, 3)
_B = np.linspace(-1.0, 1.0, 3)


def _python_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total


def _small_numpy() -> float:
    total = 0.0
    for _ in range(20):
        v = _A @ _B + _B
        total += float(np.sqrt(np.abs(v)).sum())
    return total


KERNELS = (_python_loop, _small_numpy)
# Each kernel's usual duration on the host the benchmark was defined on
# (2-core x86-64 virtual machine, Python 3.11, numpy 2.4).
NOMINAL_NS = (280_000, 180_000)


class Sampler:
    def __init__(self):
        self.times = [[] for _ in KERNELS]      # perf_counter() at each sample
        self.samples = [[] for _ in KERNELS]    # its duration in ns
        self._tick = 0
        self._previous = None

    def _handler(self, signum, frame):
        k = self._tick % len(KERNELS)
        self._tick += 1
        start = time.perf_counter_ns()
        KERNELS[k]()
        self.samples[k].append(time.perf_counter_ns() - start)
        self.times[k].append(start / 1e9)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def factor(self, start: float, end: float) -> float:
        """Speed factor of the interval [start, end] of ``perf_counter()``
        readings, widened to at least MIN_WINDOW_S; over every sample of a
        kernel that has none in the window."""
        half = max(end - start, MIN_WINDOW_S) / 2
        centre = (start + end) / 2
        logs = []
        for times, samples, nominal in zip(self.times, self.samples, NOMINAL_NS):
            window = samples[bisect.bisect_left(times, centre - half):
                             bisect.bisect_right(times, centre + half)] or samples
            if not window:
                raise RuntimeError("no speed samples were taken")
            logs.append(math.log(nominal / statistics.median(window)))
        return math.exp(sum(logs) / len(logs))
