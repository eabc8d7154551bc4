"""The benchmark's clock: CPU seconds rescaled to a fixed host speed.

On the shared 2-core host where the benchmark was written, the speed a
guest gets switches between a fast and a slow state many times a second,
and the share of time in each drifts over minutes.  A fixed loop of 0.2
million iterations took from 15 ms to 24 ms from one probe to the next.
Wall time also counts the time the host gives to other guests.

An interval is therefore timed as the CPU seconds of this process (all
its threads and the children it has waited for), and the host's speed is
sampled during the interval.  A fixed pure-Python loop of about 2 ms runs
once before it, once after it, and every ``SAMPLE_EVERY_S`` of CPU time
inside it, from a ``SIGPROF`` interval timer.  The interval's CPU time is
rescaled by ``REF_LOOP_S`` / (median sample), which gives seconds on a
host that runs the loop in ``REF_LOOP_S``.  The samples inside the
interval add about 4% to it, whatever the host's speed, so they are not
subtracted.

Over five seeds per workload, the spread of a run's median op time fell
from 11% to 4% on ``colorable``, from 20% to 6% on ``lemmas`` and from
8% to 5% on ``search-wide``.  The spread of set-up time fell from 10-28%
to 4-12%.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

LOOP_ITERATIONS = 20_000
REF_LOOP_S = 0.002
SAMPLE_EVERY_S = 0.05


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and the children it
    has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def speed_sample() -> float:
    """Seconds the host takes for the fixed loop right now.  Wall time:
    process CPU time advances in steps of about 1 ms on that host, too coarse
    for a 2 ms loop.  A sample that the host preempts reads long; the
    median of the samples ignores it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class RescaledClock:
    """Times one interval at a time; not reentrant."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        signal.signal(signal.SIGPROF, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        self._samples.append(speed_sample())

    def start(self, from_process_start: bool = False) -> None:
        self._samples = [speed_sample()]
        self._cpu0 = 0.0 if from_process_start else cpu_seconds()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> dict:
        """Return the interval's ``cpu_s``, its rescaled ``s`` and the
        ``scale`` between them."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = cpu_seconds() - self._cpu0
        self._samples.append(speed_sample())
        scale = REF_LOOP_S / statistics.median(self._samples)
        return {"s": cpu * scale, "cpu_s": cpu, "scale": scale}
