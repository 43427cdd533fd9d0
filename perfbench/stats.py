"""The benchmark's arithmetic: summaries of samples and span time attribution.

Kept apart from run.py so that test_stats.py can check it on hand-built
inputs. Nothing here touches the program under test.
"""

import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the percentile is one outlier and says nothing.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q):
    """Linear-interpolation percentile of `values` at quantile q in [0, 1]."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(count, q, min_beyond=MIN_BEYOND):
    """The highest quantile <= q that leaves at least `min_beyond` of `count`
    samples beyond it, or None when even the median does not.

    tail_quantile(1000, 0.99) is 0.99; tail_quantile(79, 0.99) is 1 - 10/79.
    """
    if count <= 0:
        return None
    top = 1.0 - min_beyond / count
    if top < 0.5:
        return None
    return min(q, top)


def round_start_ns(k, round_end_ns, solve_ns):
    """Host time (ns since the solve started) at which simulated round k began.

    Round 0 begins when the solve starts; round k > 0 begins when round k-1's
    end_round hook fired. A round past the last hook begins at the solve's
    return, so a span over rounds the hook never saw gets the time from its
    last timestamp to the return and no more.
    """
    if k <= 0:
        return 0
    if k - 1 < len(round_end_ns):
        return round_end_ns[k - 1]
    return solve_ns


def span_times(spans, round_end_ns, solve_ns):
    """Host time of each span and its self time, in ns.

    `spans` are (name, parent, begin_round, end_round) in begin order, with
    parent the index of the enclosing span or -1. A span's host time is the
    wall time of the rounds [begin_round, end_round) it covers; a span over no
    rounds gets none. Its self time is that minus its direct children's host
    time. Returns (totals, selfs), two lists aligned with `spans`.
    """
    totals = [
        round_start_ns(end, round_end_ns, solve_ns) - round_start_ns(begin, round_end_ns, solve_ns)
        for _, _, begin, end in spans
    ]
    children = [0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += totals[i]
    selfs = [t - c for t, c in zip(totals, children)]
    return totals, selfs


def by_name(spans, totals, selfs):
    """{name: {"count", "total_ns", "self_ns"}} summed over spans of one name.

    total_ns counts nested spans of the same name once per span, so only
    self_ns sums to wall time.
    """
    out = {}
    for (name, _, _, _), total, self_ns in zip(spans, totals, selfs):
        row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += total
        row["self_ns"] += self_ns
    return out


def attributed_ns(spans, totals):
    """Host time covered by top-level spans."""
    return sum(t for (_, parent, _, _), t in zip(spans, totals) if parent < 0)
