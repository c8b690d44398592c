"""Op times that do not depend on how busy the host's other tenants are.

On a virtual machine whose CPUs share cores with other tenants, the same
Python code runs at one speed while the neighbour is idle and up to about
2 times slower while it is busy, switching many times a second and in
phases that last from seconds to minutes.  Wall-clock op times then differ
by up to 2 times from run to run, for the same work.

A SteadyClock samples that speed every INTERVAL_S: a SIGALRM timer runs a
probe loop of PROBE_LOOPS additions and notes how long it took.  The clock
counts *work*: each stretch of wall time between two samples, divided by the
probe time of the sample that starts it, so a stretch run at half speed
counts half.  The probes themselves are not counted.  ``seconds`` turns work
into *reference seconds*: work times REFERENCE_PROBE_S, a fixed probe time.
On the machine the benchmark was written on (2-CPU Xeon VM at 2.1 GHz,
CPython 3.11.7), that is near the fastest probe times seen, so a reference
second is about a second of the host's speed while its other tenants leave
the core alone; on another machine it is a fixed amount of work, the same
for every commit measured there.

A fixed reference, rather than the fastest probe of each run, matters: a
10 s run does not always meet the uncontended state, so the fastest probe of
a run varied from 6.2 to 10.1 us there, while work per op varied by 3%.

The correction assumes the library slows down by the same factor as the
probe loop; both are single-threaded CPython bytecode.  A stretch spent
sleeping or waiting for I/O counts at the probe's speed, so it is counted
as wall time.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

PROBE_LOOPS = 300
REFERENCE_PROBE_S = 7.0e-6


def _probe() -> float:
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return perf_counter() - start


class SteadyClock:
    """``with SteadyClock() as clock:`` samples the host's speed until the
    block ends; ``clock.now()`` is the work done so far, in probe times."""

    INTERVAL_S = 0.002
    FIRST_PROBES = 20

    def __init__(self):
        self.fastest = math.inf  # fastest probe time seen, in s
        self.samples = 0
        # work at the last sample, wall time at its end, work per wall second since
        self._state = (0.0, perf_counter(), 0.0)
        self._previous = None

    def __enter__(self) -> "SteadyClock":
        for _ in range(self.FIRST_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        work, last, rate = self._state
        start = perf_counter()
        took = _probe()
        end = perf_counter()
        self.fastest = min(self.fastest, took)
        self.samples += 1
        self._state = (work + (start - last) * rate, end, 1.0 / took)

    def now(self) -> float:
        """Work done since the clock was made, in probe times."""
        work, last, rate = self._state
        return work + (perf_counter() - last) * rate

    @staticmethod
    def seconds(work: float) -> float:
        """`work`, in probe times, in reference seconds."""
        return work * REFERENCE_PROBE_S
