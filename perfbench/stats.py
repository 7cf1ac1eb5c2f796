"""Percentile and quartile arithmetic of the benchmark.

Quartiles use Python's statistics.quantiles(values, n=4) (its default,
"exclusive" method), the same arithmetic that judges run-to-run spread.
Percentiles of operation samples interpolate linearly between the two
closest ranks, rank = p/100 * (n - 1).
"""

import statistics

# Percentiles reported for operation samples, lowest to highest.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def percentile(sorted_values, p):
    """Linear-interpolated percentile p (0..100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside 0..100: %r" % p)
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them; a
    single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def highest_tail(n):
    """The highest percentile in LADDER with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def summarize(values):
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it, for one metric's samples."""
    vals = sorted(values)
    q1, med, q3 = quartiles(vals)
    tail_p = highest_tail(len(vals))
    return {
        "n": len(vals),
        "median": med,
        "q1": q1,
        "q3": q3,
        "tail_p": tail_p,
        "tail": percentile(vals, tail_p) if tail_p is not None else None,
    }
