"""Order statistics and resource readings shared by the benchmark."""

from __future__ import annotations

import math
import resource
from typing import Sequence

#: Percentiles a tail is reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> "float | None":
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it
    (fewer than 20 samples), in which case no tail is reported.
    """
    best = None
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            best = pct
    return best


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its waited-for children.

    ``getrusage`` keeps one maximum per side, so concurrent children
    are represented by the largest of them, not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
