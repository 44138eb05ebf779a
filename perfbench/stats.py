"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """Latency at the highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples for any such percentile.  With N sorted samples the value
    at rank N - beyond (1-based) has exactly `beyond` samples above it; its
    percentile is that rank over N.
    """
    xs = sorted(values)
    rank = len(xs) - beyond
    if rank < 1:
        return None
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)
