"""Summary statistics shared by every workload.

Percentiles follow one rule: a percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so a p99 needs 1,000 samples and a
p90 needs 100.  Below that the helper returns ``None`` and the report
says so instead of printing a number that one sample decides.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def samples_needed(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond ``q``.

    ``q`` is a percentile in (0, 100).  Integer arithmetic on hundredths
    of a percent keeps e.g. p99 at exactly 1,000 samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    tail = 10000 - round(q * 100)
    return -(-MIN_BEYOND * 10000 // tail)


def percentile(values, q: float) -> "float | None":
    """The ``q``-th percentile of ``values`` (nearest rank), or ``None``
    when fewer than :func:`samples_needed` samples back it."""
    data = sorted(values)
    if len(data) < samples_needed(q):
        return None
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[rank - 1]


def mean(values) -> "float | None":
    data = list(values)
    return sum(data) / len(data) if data else None


def sustained_rate(points, limit: float) -> "float | None":
    """Highest offered rate whose latency stays within ``limit``.

    ``points`` is a list of ``(rate, latency, backlog_ok)`` for the ladder
    rungs; ``latency`` is ``None`` for a rung without enough samples for
    its percentile, which counts as missing the limit.  Rungs are read in
    increasing rate.  The answer is interpolated linearly between the last
    rung that meets the limit and the first that misses it, so it moves
    smoothly instead of jumping by whole ladder steps.  When every rung
    meets the limit the top rate is returned (a lower bound); when the
    lowest rung already misses, ``None``.
    """
    rungs = sorted(points)
    last_ok = None
    for rate, latency, backlog_ok in rungs:
        ok = latency is not None and latency <= limit and backlog_ok
        if ok:
            last_ok = (rate, latency)
            continue
        if last_ok is None:
            return None
        ok_rate, ok_latency = last_ok
        if latency is None or not backlog_ok or latency <= ok_latency:
            # No usable slope past the limit: credit only the passing rung.
            return ok_rate
        share = (limit - ok_latency) / (latency - ok_latency)
        return ok_rate + share * (rate - ok_rate)
    return None if last_ok is None else last_ok[0]
