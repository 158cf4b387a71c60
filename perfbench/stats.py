"""The tail rule: which percentile a latency tail is reported at.

Pure functions over lists of floats, so the rule the records rest on can be
tested without running a simulation.

Each workload reports its tail at one fixed percentile
(``Workload.tail_percentile``), so every commit is compared at the same
rank.  The percentile was chosen with :func:`rule_percentile` from the
sample counts a 12 s run yields; each record also carries the rule's
percentile for the run's own count, so a drift away from the fixed one
shows.
"""

from __future__ import annotations

from typing import Sequence

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
#: the percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(percentile: float, n: int) -> int:
    """1-based rank of the sample at ``percentile``: ``ceil(p/100 * n)``.

    Computed in hundredths of a percent so it is exact integer arithmetic.
    """
    return -(-round(percentile * 100) * n // 10000)


def percentile(values: Sequence[float], pct: float) -> float:
    """The sample of rank ``ceil(pct/100 * n)``."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[max(_rank(pct, len(values)), 1) - 1])


def rule_percentile(n: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples above it.

    With fewer than ``2 * TAIL_BEYOND`` samples not even the median
    qualifies, and the median (50) is returned.
    """
    for pct in reversed(TAIL_LADDER):
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[0]
