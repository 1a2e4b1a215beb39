"""Percentiles for the benchmark, kept apart from ``oran_isac.stats``.

The benchmark computes its own statistics so that a change to the program's
statistics module cannot move the benchmark's numbers. Percentile levels are
handled as exact decimals, so ``ceil(p/100 * n)`` never rounds the wrong way
(``0.999 * 1000`` is 999.0000000000001 in binary floating point).
"""

from __future__ import annotations

from fractions import Fraction

# Levels tried, in order, by the tail rule.
TAIL_LADDER = ("50", "90", "95", "99", "99.9", "99.99")

# A tail percentile is reported only when at least this many samples lie
# beyond it.
TAIL_MIN_BEYOND = 10


def rank(p: str | float, n: int) -> int:
    """1-based nearest rank of percentile level ``p`` (0 < p <= 100) in n samples."""
    level = Fraction(str(p))
    if not 0 < level <= 100:
        raise ValueError(f"percentile level {p} not in (0, 100]")
    if n <= 0:
        raise ValueError("percentile of empty input")
    q = level * n / 100
    return max(1, -(-q.numerator // q.denominator))


def percentile(sorted_values, p: str | float):
    """Nearest-rank percentile of an already sorted sequence: always a sample."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail_level(n: int) -> str | None:
    """Highest ladder level with at least TAIL_MIN_BEYOND samples beyond its rank."""
    best = None
    for level in TAIL_LADDER:
        if n > 0 and n - rank(level, n) >= TAIL_MIN_BEYOND:
            best = level
    return best


def summarize(values) -> dict:
    """p50, p90, p95, p99 and the tail level for a list of timings, with its count."""
    data = sorted(values)
    n = len(data)
    if not n:
        return {"n": 0}
    tail = tail_level(n)
    out = {"n": n, "tail_level": tail}
    out.update((f"p{p}", percentile(data, p)) for p in ("50", "90", "95", "99"))
    if tail is not None:
        out["tail"] = percentile(data, tail)
    return out

