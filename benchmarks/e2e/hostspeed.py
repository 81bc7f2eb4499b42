"""Host-speed probes, to report times at a fixed reference speed.

The benchmark runs on a share of a machine that others use too, and that
share's speed drifts: within three minutes, a budget-200 ``optimize`` of
ResNet-18/256 on POWER9 took 146 ms (median of a 20 s window) and then
302 ms.  Medians of ten 20 s runs spread by 23-41% between their
quartiles, whatever the estimator.

A probe of interpreter work that allocates, as the planner's does,
slowed in step: its ratio to the search stayed within 43.1-47.6 while the
search itself moved 2.07x.  So the host is probed just before and just
after every timed operation, and a few times while it runs, and the
operation's wall is scaled by :data:`REFERENCE_S` over the mean probe:
the time the operation would take on a host where the probe takes
:data:`REFERENCE_S`.  Probes run on the measuring thread, with the garbage
collector off, and count that thread's CPU time: a program thread kept
busy in the background, or a large program heap, cannot pass for a slow
host.  Raw walls are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: probe input: one step per entry
KEYS = [0.5] * 20_000
#: the probe's CPU time on the reference host: a 2-core x86-64 container
#: (Xeon at 2.0 GHz, Python 3.11) while its machine was quiet
REFERENCE_S = 0.0033
#: probes per measurement; the fastest counts
REPEATS = 3
#: probe interval while an operation runs, one probe run each.  The host
#: changes speed within a 6 s search: over 39 ResNet-50/256
#: budget-100,000 searches, scaling by the two probes around each search
#: gave a coefficient of variation of 16% (11% raw); adding these probes
#: inside it gave 5.6%.
PERIOD_S = 0.5
#: the first probe inside an operation, so that short ones get one too:
#: over 1,521 plan-cache hits of 60-100 ms, it took the coefficient of
#: variation from 11.4% (the two probes around each) to 8.8% (24% raw)
FIRST_S = 0.04


def pin() -> None:
    """Pins the calling thread, and every thread it starts afterwards, to
    one CPU.  The two CPUs of a shared host do not drift together: probing
    one CPU while the work moved between both made ResNet-50/512 searches
    vary more scaled than raw (17 searches: coefficient of variation 16%
    scaled, 10% raw; 21 pinned searches: 7% scaled, 10% raw).  Threads
    started before, such as numpy's BLAS pool, keep both CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _work() -> int:
    """Each step builds a tuple key and a one-element list and stores them
    in an eight-entry dict, freeing the list stored there before."""
    table = {}
    for i, key in enumerate(KEYS):
        table[(key, i & 7)] = [i]
    total = 0
    for key in sorted(table):
        total += table[key][0]
    return total


def probe_s(repeats: int = REPEATS) -> float:
    """CPU seconds of the fixed probe on this thread, best of ``repeats``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.thread_time()
            _work()
            best = min(best, time.thread_time() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probes the host for the timed operations of the main thread.  It
    takes over ``SIGALRM`` for the life of the process."""

    def __init__(self) -> None:
        self.last = probe_s()
        #: probes taken inside operations since the last :meth:`factor`
        self.inside: list[float] = []
        #: wall the probes took inside the last :meth:`sampling` block
        self.stolen_s = 0.0
        #: every factor handed out, for the result document
        self.factors: list[float] = []
        #: whether :meth:`sampling` probes at all; off in traced rounds,
        #: whose hooks would count the probes as layer time
        self.inside_ops = True
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        if not self._armed:  # a tick raised just before disarming
            return
        start = time.perf_counter()
        self.inside.append(probe_s(repeats=1))
        self.stolen_s += time.perf_counter() - start

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probes at :data:`FIRST_S` and then every :data:`PERIOD_S` while
        the block runs.  A timer
        signal runs each probe on the main thread, in the middle of the
        block's work; a caller timing the block takes :attr:`stolen_s` off
        its wall."""
        self.stolen_s = 0.0
        if not self.inside_ops:
            yield
            return
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False

    def factor(self) -> float:
        """Reference-speed factor for the operations that just ended:
        probes now and averages with the probe taken before them and those
        taken while they ran."""
        now = probe_s()
        probes = [self.last, *self.inside, now]
        factor = REFERENCE_S * len(probes) / sum(probes)
        self.last = now
        self.inside = []
        self.factors.append(factor)
        return factor
