"""Operation timing scaled to a reference machine speed.

The machine this benchmark was built on switches between a fast and a slow
state, about 1.4 times apart, every few seconds to few minutes (other
tenants share its cores).  Run-level medians of raw times then differ by
25-30 % between runs, more than any bound a regression check can use.  So
every operation is bracketed by a probe, a fixed pure-Python task of about
10 ms, and its time is scaled by ``PROBE_REFERENCE_S`` over the mean of the
two probes.  Over 569 operations of two kinds, this cut the spread of
25-operation medians from 0.12-0.16 to 0.02-0.04 of their median.  Raw times
are kept beside the scaled ones.

The probe does not touch urnfield, so a change to the program moves the
scaled time by as much as it moves the raw time.  A program that left a
thread running would slow the probe and flatter itself; the benchmark
checks that no thread outlives a round.
"""

from __future__ import annotations

from time import perf_counter

PROBE_REFERENCE_S = 0.010
_PROBE_ITERATIONS = 60_000  # about 10 ms here


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python task right now."""
    t0 = perf_counter()
    total, seen = 0, {}
    for i in range(_PROBE_ITERATIONS):
        total += i * i
        seen[i & 255] = total
    return perf_counter() - t0


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` as they would read at reference speed."""
    return seconds * 2.0 * PROBE_REFERENCE_S / (probe_before + probe_after)


class Clock:
    """Times the operations of one round, each between two probes (an
    operation shares its closing probe with the next one's opening)."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.failed = 0

    def op(self, fn, *args, **kwargs):
        if not self.probes:
            self.probes.append(probe())
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            elapsed = perf_counter() - t0
            self.probes.append(probe())
            self.raw.append(elapsed)
            self.scaled.append(scale(elapsed, self.probes[-2], self.probes[-1]))
