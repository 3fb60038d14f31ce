"""Machine-speed calibration: how slow was the box while a round ran?

The reference box is a small VM on a shared host, and the speed of its
cores wanders by a third over tens of seconds to minutes: a fixed 5 ms
task read 3.9 ms to 7.6 ms as 30-second means within one quarter of an
hour, and the spread between windows did not shrink from 1-second to
90-second windows.  Longer runs and medians therefore cannot make two
runs of the same code agree; the first version of this benchmark was
refused for exactly that (ten runs of one commit spread 20-26 %).

What does work is to measure the slowdown *while the program runs* and
divide it out.  A one-shot interval timer (``SIGALRM``) interrupts the
main thread after every ``PERIOD_S`` seconds of program time and runs a
fixed probe of about a millisecond: a Python arithmetic loop, a small
numpy sort and Python set operations, the mix that tracked all four
workloads best (round wall time against the probe: correlation 0.88-0.92).
No thread, no process, same core as the program.  The time spent inside
the probe is kept out of every reported time (``Sampler.clock``).

``slowdown`` turns the probe times of a stretch into one factor: a
program that needs ``W`` seconds on a box running at nominal speed needs
``W * slowdown`` on this one, so ``measured / slowdown`` is the time in
*nominal seconds*.  Everything the program waits for (I/O, sleeps, locks,
worker processes) is still in the measured time; only the unit changes.

The workloads lose more to a busy host than the small probe does: over 80
runs of one commit their round time went with the probe's slowdown to the
power 0.9 to 1.7, depending on the workload, so the factor is the probe's
slowdown to the power ``SENSITIVITY``, one constant for all of them.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Iterator, List, Sequence

import numpy as np

#: program time between two probes
PERIOD_S = 0.025
#: probe time at which a second counts as a second: what the probe takes
#: on the reference box while its host is quiet (the fastest of 5 000
#: samples read 1.02 ms, their median in a busy hour 1.5 ms)
NOMINAL_S = 0.001
#: how much harder than the probe a program is hit by the same busy host.
#: 1.25 against 1.0 took the widest spread of ten runs from 12.6 % to 9.8 %
#: and left 250 separately recorded rounds where they were (2.6-7.4 % became
#: 3.8-6.5 %); 1.5 is better for ``clique-explore`` and worse for
#: ``paper-stream`` and ``token-storm``.
SENSITIVITY = 1.25

_VALUES = np.arange(35_000, dtype=np.int64)
_SETS = [
    set(row)
    for row in np.random.default_rng(1).integers(0, 20_000, size=(450, 8)).tolist()
]


def probe() -> int:
    """A fixed unit of interpreter, numpy and container work (~1 ms)."""
    total = 0
    for i in range(6_000):
        total += i * i % 7
    np.sort((_VALUES * 2_654_435_761) % 1_000_003)
    previous = _SETS[-1]
    for key, current in enumerate(_SETS):
        total += len(current & previous) + len([v for v in current if v > key])
        previous = current
    return total


def slowdown(samples: Sequence[float]) -> float:
    """Factor by which the box ran slower than nominal over ``samples``.

    Work done is the integral of speed over time, so the speeds
    (``NOMINAL_S / sample``) are averaged, not the times: a probe that was
    descheduled for 100 ms counts as one slow instant, not as a hundred.
    """
    if not samples:
        raise ValueError("no probe samples: nothing to calibrate with")
    probe = len(samples) / (NOMINAL_S * sum(1.0 / sample for sample in samples))
    return probe ** SENSITIVITY


def probe_seconds(factor: float) -> float:
    """The probe time that ``slowdown`` turns into ``factor`` (for context)."""
    return NOMINAL_S * factor ** (1 / SENSITIVITY)


class Sampler:
    """Runs ``probe`` on a timer while ``running()`` and keeps its times."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        #: wall and CPU seconds spent inside the probe so far
        self.probe_wall = 0.0
        self.probe_cpu = 0.0

    def clock(self) -> float:
        """``perf_counter`` seconds, not counting time inside the probe."""
        return time.perf_counter() - self.probe_wall

    def _sample(self, signum=None, frame=None) -> None:
        cpu_start = time.process_time()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self._samples.append(end - start)
        self.probe_cpu += time.process_time() - cpu_start
        # re-armed from here, so that a slow probe cannot queue up alarms
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.probe_wall += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self) -> Iterator[None]:
        """Probe now and after every ``PERIOD_S`` until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> List[float]:
        """Hand over the probe times gathered since the last call."""
        taken, self._samples = self._samples, []
        return taken
