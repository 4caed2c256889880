"""Host-speed correction for timings taken on a shared machine.

On a shared 2-vCPU host the speed of the CPU the benchmark gets swings by
±20–30% within a minute, for a pure-Python loop as much as for a job; the
swing is not steal time (CPU time swings with wall time). A run's median
inherits the swing, so two runs of the same code minutes apart disagree by
more than any useful bound.

So every timed span is bracketed by a calibration: a fixed pure-Python loop
of dict, tuple, float and call work like the engine's per-record paths. The
span's time is scaled by ``REFERENCE_UNIT_S`` over the calibration's mean
time before and after it, which gives the seconds the span would have taken
at the reference speed. The calibration does not touch mrlab, so a change
to the program cannot move it; a program that gets 10% slower still reads
10% slower.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one calibration unit takes at the reference speed: the median of
# the units timed on the machine the benchmark was defined on (2 vCPUs,
# x86_64, Python 3.11). Corrected times are in seconds at that speed.
REFERENCE_UNIT_S = 0.011
# Units per calibration: about 0.18 s. Shorter calibrations follow the
# host's speed during the span less well (a 0.05 s one did not help).
UNITS = 16


def _unit() -> int:
    table: dict = {}
    total = 0.0
    for i in range(25000):
        key = (i % 97, i & 7)
        total += i * 0.5
        table[key] = table.get(key, 0.0) + total
    return len(table)


def unit_s() -> float:
    """Seconds per calibration unit, now."""
    t0 = perf_counter()
    for _ in range(UNITS):
        _unit()
    return (perf_counter() - t0) / UNITS


class HostSpeed:
    """Calibrates between timed spans and scales each span by the speed
    measured on both sides of it."""

    def __init__(self):
        self.last = unit_s()
        self.units = [self.last]

    def correct(self, elapsed: float) -> float:
        """Call right after the span ends: its seconds at the reference speed."""
        before, self.last = self.last, unit_s()
        self.units.append(self.last)
        return elapsed * REFERENCE_UNIT_S / ((before + self.last) / 2)
