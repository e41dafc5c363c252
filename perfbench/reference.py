"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the speed of the guest drifts by 10-50 % over
seconds to minutes, and a whole run can fall into a slow stretch.  The
benchmark therefore probes this kernel while it measures and reports each
time scaled to the kernel's nominal speed:

    normalised = measured * (NOMINAL_S / probe) ** EXPONENT

The kernel mixes what the workloads do: interpreted loops over ints, dicts
and strings, and small int64 numpy products reduced modulo a prime.  It
imports nothing from abelcentral, so a change to the program does not move
it.  Code does not slow down by quite the same factor as the kernel: on a
2-vCPU Intel Xeon guest, least-squares fits of log job time on log probe
gave exponents of 0.5 to 0.9 over runs of all four workloads, and with
EXPONENT = 0.75 the run-to-run spread of every timing metric was lowest
(with 1 the slow stretches were over-corrected, with 0.5 under-corrected).
The exponent is fixed rather than fitted per run, so that every run and
every commit is corrected in the same way.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About the kernel's duration on an unloaded 2-vCPU Intel Xeon guest;
# normalised times read as times on a machine where one call takes this long.
NOMINAL_S = 0.0004
EXPONENT = 0.75
CALLS_PER_PROBE = 3

_A = (np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7919) % 65521


def kernel() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(1200):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * 7 % 13
        total += len(str(i))
    total += int(((_A @ _A) % 65521).sum())
    return total + len(counts)


def probe() -> float:
    """Seconds one kernel call takes now: the fastest of a few back-to-back
    calls, so that an interrupt or a cold cache in one call does not count."""
    best = float("inf")
    for _ in range(CALLS_PER_PROBE):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Probes the kernel every ``every_s`` seconds of wall time, from a timer
    signal, for as long as it is entered; also once on entry and on exit.

    The probes land inside long jobs too, so a job of a second is judged by
    the speed during it, not only at its ends.  ``clock`` is time.perf_counter
    less the time spent in probes, so that timings taken with it leave the
    probes out.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())

    def _fire(self, signum, frame) -> None:
        if self._busy:  # a probe that outlasted the interval
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent


def normalise(seconds: float, probe: float) -> float:
    """``seconds`` measured next to a kernel call of ``probe`` seconds, at nominal speed."""
    return seconds * (NOMINAL_S / probe) ** EXPONENT
