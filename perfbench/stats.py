"""Statistics of the benchmark: medians, quartile spread, tail percentiles
and serving capacity. Pure functions over lists of floats (no third-party
packages), tested by tests/test_stats.py."""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def _rank(pct, count):
    """1-based nearest rank of the pct-th percentile among `count` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def highest_supported_percentile(count, candidates=(50, 90, 99, 99.9, 99.99)):
    """The highest candidate percentile that leaves at least ten samples
    beyond it among `count` samples, or None when even the lowest does not."""
    best = None
    for pct in candidates:
        if count - _rank(pct, count) >= 10:
            best = pct
    return best


def capacity(rounds):
    """Responses completed per second while the offered rate is above
    capacity. `rounds` holds one list of completion times per round. In a
    round the server is busy from the first completion until the backlog
    drains, so a round contributes the completions after its first over the
    span between its first and last completion; rounds pool by summing both."""
    completions = 0
    busy = 0.0
    for times in rounds:
        if len(times) < 2:
            raise ValueError("capacity needs at least two completions a round")
        completions += len(times) - 1
        busy += max(times) - min(times)
    if busy <= 0:
        raise ValueError("completions span no time")
    return completions / busy
