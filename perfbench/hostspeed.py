"""Host-speed reference: host times expressed in reference milliseconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes as neighbours come and go; raw wall time then moves
with the neighbours as much as with the code.  A fixed pure-Python loop,
shaped like the simulator's own work (method calls, attribute updates,
small-int arithmetic, dict stores) and independent of the package under
test, is timed next to every measurement.  Each host time is scaled by
``NOMINAL_S / reference time``: the result is the time the measurement
would have taken on a host that runs the reference loop in exactly
``NOMINAL_S`` (a quiet moment of the shared 2-vCPU Xeon VM the benchmark
was written on).  The end-to-end host times are reported in these
reference-host units; raw wall times stay in each run's record.
"""

from __future__ import annotations

import time

#: the reference loop's time on the nominal host (defines the reference units)
NOMINAL_S = 0.005
ITERATIONS = 20_000
#: timings per reference measurement; the fastest is kept
REPEATS = 2


class _Counter:
    __slots__ = ("value", "calls")

    def __init__(self) -> None:
        self.value = 0
        self.calls = 0

    def bump(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        self.calls += 1
        return self.value


def _reference_loop() -> int:
    counter = _Counter()
    table: dict = {}
    acc = 0
    for i in range(ITERATIONS):
        acc ^= counter.bump(i)
        table[i & 255] = acc
    return acc


def reference_seconds() -> float:
    """Fastest of ``REPEATS`` timings of the reference loop."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(reference_s: float) -> float:
    """Factor turning a raw host time into reference seconds."""
    return NOMINAL_S / reference_s
