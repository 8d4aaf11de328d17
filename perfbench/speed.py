"""Scaling of measured times by the machine's current speed.

On a shared virtual machine (measured on a 2-vCPU Intel Xeon VM whose
cores other tenants also use) a fixed pure-Python loop takes anywhere from
1x to 2x its best time, in phases that last from about a second to longer
than a whole run, and CPU time rises with wall time (so it is not time spent
descheduled).  Raw wall times of identical code spread by 15 to 40 percent
between runs there.

So every timed quantity is also scaled to a reference speed.  A reference
probe, which runs none of the library's code, is timed every ``period_ns``
of measuring, and each measured time is multiplied by the probe's nominal
time over the mean of the two probe times around it.  A reported time is
what the operation would take on a machine where the probe takes its
nominal time.  Raw times are kept next to the scaled ones in the results
file.

* ``KERNEL``: exact rationals and a dict (like the library's own
  arithmetic), timed in-process with the garbage collector off, for
  operations that run in this process.
* ``INTERPRETER``: ``python -c pass``, for operations that are subprocesses.
  A child's speed follows a fresh interpreter's start-up far more closely
  than this process's kernel (measured: 5 percent spread of the ratio
  against up to 9 percent with the kernel).
"""

from __future__ import annotations

import gc
import statistics
from array import array
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable


def _kernel():
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 430):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        counts[i % 31] = counts.get(i % 31, 0) + i
    return total, counts


def kernel_ns() -> float:
    """Median of three kernel timings, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter_ns()
            _kernel()
            times.append(perf_counter_ns() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def interpreter_ns() -> float:
    """Wall time of one ``python -c pass``."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   capture_output=True, check=True, timeout=60)
    return perf_counter_ns() - t0


@dataclass(frozen=True)
class Probe:
    measure: Callable[[], float]
    nominal_ns: float
    period_ns: int


KERNEL = Probe(kernel_ns, 1_000_000, 250_000_000)
INTERPRETER = Probe(interpreter_ns, 50_000_000, 1_000_000_000)


class Scaler:
    """Collects raw times and scales them chunk by chunk.

    Times are kept in flat arrays (8 bytes each), so the bookkeeping of a run
    adds little to the process's peak memory however many operations it does.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.prev = probe.measure()
        self.probes = [self.prev]
        self.pending: list[int] = []
        self.raw = array("q")
        self.scaled = array("d")
        self.last = perf_counter_ns()

    def add(self, ns: int) -> None:
        self.pending.append(ns)
        if perf_counter_ns() - self.last >= self.probe.period_ns:
            self.flush()

    def flush(self) -> None:
        k = self.probe.measure()
        factor = self.probe.nominal_ns / ((k + self.prev) / 2)
        self.scaled.extend(x * factor for x in self.pending)
        self.raw.extend(self.pending)
        self.pending = []
        self.prev = k
        self.probes.append(k)
        self.last = perf_counter_ns()


def scaled_call(fn, probe: Probe):
    """(raw seconds, scaled seconds) of one call of ``fn``."""
    before = probe.measure()
    t0 = perf_counter_ns()
    fn()
    raw = perf_counter_ns() - t0
    factor = probe.nominal_ns / ((before + probe.measure()) / 2)
    return raw / 1e9, raw * factor / 1e9
