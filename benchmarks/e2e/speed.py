"""Host-speed probe: how fast is this machine *right now*?

The sandbox the benchmark runs in is a small shared VM whose speed moves
between modes (about -20% / 0 / +30% around normal) that last from a
second to a minute: ten identical 13-second runs spread by 10-20%
(quartile distance over median), which is more than any bound worth
setting.  Medians over repetitions or over short windows do not help,
because a mode outlasts a whole run.

So every repetition times a fixed pure-Python kernel ten times a second
while it runs (from a ``SIGALRM`` handler, which CPython executes on the
main thread between two bytecodes: no second thread, about 2% overhead)
and reports ``slowdown``: the kernel's mean time over the repetition divided
by its time on the reference box in its normal mode.  ``run.py`` divides
host seconds by it.  Host times are therefore in *seconds of the
reference box at normal speed*; the raw seconds and the factor are kept
in the results file.  Over ten seeds per workload this brought the spread
of the host-time metrics from 7-23% down to 2-8% (README).  The kernel
must stay independent of the code under test: a slice of the simulator
would speed up with it and hide the gain it is there to show.

The probe changes nothing the simulator can see: it has no wall-clock
input, and the ``sim_fingerprint`` of every repetition is compared.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter
from typing import Any

PERIOD_S = 0.1
KERNEL_STEPS = 10_000
#: the kernel's duration on the reference box (2 vCPUs, CPython 3.11) in
#: its normal mode; a constant, so calibrated seconds compare across runs
REFERENCE_S = 0.00165


class _Cell:
    __slots__ = ("a", "b", "log")

    def __init__(self) -> None:
        self.a, self.b, self.log = 0, 1, []

    def step(self, i: int) -> int:
        self.a, self.b = self.b, (self.a + i) & 0xFFFF
        if i & 7 == 0:
            self.log.append(self.a)
        return self.b


def kernel() -> float:
    """Method calls, attribute, list, dict and bytearray traffic: the mix
    the simulator itself is made of.  Returns its own duration."""
    started = perf_counter()
    cell, buffer, seen = _Cell(), bytearray(256), {}
    for i in range(KERNEL_STEPS):
        value = cell.step(i)
        buffer[value & 255] = i & 255
        seen[value & 63] = i
    return perf_counter() - started


class SpeedProbe:
    """Samples :func:`kernel` every :data:`PERIOD_S` between start and stop."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def start(self) -> None:
        self._sample()  # a repetition shorter than one period still has a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum: int = 0, _frame: Any = None) -> None:
        self.samples.append(kernel())

    def slowdown(self) -> float:
        """> 1: the machine was slower than the reference while this ran."""
        return mean(self.samples) / REFERENCE_S
