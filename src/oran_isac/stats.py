"""Latency statistics and experiment post-processing.

Percentiles use the nearest-rank method (sorted value at index ceil(p/100*n),
1-based) so reported numbers are always observed samples. Compliance against
a use-case threshold counts samples strictly below it. Both conventions are
stated in the emitted summary metadata so plots are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class EmptyInput(ValueError):
    pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; p=0 returns the minimum."""
    data = sorted(values)
    if not data:
        raise EmptyInput("percentile of empty input")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    if p == 0.0:
        return data[0]
    rank = math.ceil(p / 100.0 * len(data))
    return data[rank - 1]


def compliance_fraction(latencies_ms, threshold_ms: float) -> float:
    """Fraction of samples strictly below the threshold."""
    data = list(latencies_ms)
    if not data:
        raise EmptyInput("compliance fraction of empty input")
    return sum(1 for x in data if x < threshold_ms) / len(data)


def jitter_p95(inter_arrivals_ms, target_ms: float) -> float:
    """p95 of the absolute deviation of inter-arrival times from the target."""
    data = list(inter_arrivals_ms)
    if not data:
        raise EmptyInput("jitter of empty input")
    if target_ms <= 0:
        raise ValueError("target must be positive")
    return percentile([abs(x - target_ms) for x in data], 95.0)


def ecdf(values) -> list[tuple[float, float]]:
    """Empirical CDF as sorted (value, cumulative fraction) step points.

    Duplicate values collapse to a single step carrying the highest fraction.
    """
    data = sorted(values)
    if not data:
        raise EmptyInput("ecdf of empty input")
    n = len(data)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(data, start=1):
        if points and points[-1][0] == v:
            points[-1] = (v, i / n)
        else:
            points.append((v, i / n))
    return points


# Use-case latency thresholds, milliseconds.
USE_CASE_THRESHOLDS_MS = {
    "vehicular_perception": 10.0,
    "uav_tracking": 20.0,
    "industrial_control": 1.0,
    "beam_management": 5.0,
}

# Published reference medians from the prototype this reproduces, for
# side-by-side annotation only; they are hardware-specific and never asserted.
REFERENCE_RESULTS = {
    "telemetry_median_ms": 3.9,
    "telemetry_p95_ms": 10.2,
    "control_median_ms": 0.7,
    "closed_loop_median_ms": 4.6,
    "vehicular_compliance": 0.934,
    "jitter_p95_at_10ms_ms": 8.4,
    "note": "reference prototype values, hardware-specific, not asserted",
}


@dataclass
class SegmentStats:
    target_ms: float
    mean_ms: float
    stdev_ms: float
    p95_jitter_ms: float
    count: int


def _no_percentiles() -> dict[str, float | None]:
    return {"p50": None, "p95": None, "p99": None}


@dataclass
class ExperimentSummary:
    """Aggregate results of one experiment run."""

    segments: list[SegmentStats] = field(default_factory=list)
    telemetry_ms: dict[str, float | None] = field(default_factory=_no_percentiles)
    control_ms: dict[str, float | None] = field(default_factory=_no_percentiles)
    closed_loop_ms: dict[str, float | None] = field(default_factory=_no_percentiles)
    compliance: dict[str, float] = field(default_factory=dict)
    transport_drops: int = 0
    sample_count: int = 0
    metadata: dict = field(default_factory=dict)
    dapp_counters: dict = field(default_factory=dict)
    xapp_counters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        trio = tuple(self.telemetry_ms.values())
        if None not in trio and not trio[0] <= trio[1] <= trio[2]:
            raise ValueError("telemetry percentiles must be nondecreasing")
        for frac in self.compliance.values():
            if not 0.0 <= frac <= 1.0:
                raise ValueError("compliance fractions must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "segments": [vars(s) for s in self.segments],
            "telemetry_ms": self.telemetry_ms,
            "control_ms": self.control_ms,
            "closed_loop_ms": self.closed_loop_ms,
            "compliance": self.compliance,
            "transport_drops": self.transport_drops,
            "sample_count": self.sample_count,
            "percentile_method": "nearest-rank",
            "compliance_convention": "strict less-than",
            "reference_prototype": REFERENCE_RESULTS,
            "metadata": self.metadata,
            "dapp_counters": self.dapp_counters,
            "xapp_counters": self.xapp_counters,
        }


def latency_percentiles_ms(values_ms) -> dict[str, float]:
    """The p50, p95 and p99 of the samples, keyed as ``summary.json`` writes them."""
    return {f"p{p}": percentile(values_ms, p) for p in (50, 95, 99)}


def compliance_table(latencies_ms) -> dict[str, float]:
    return {name: compliance_fraction(latencies_ms, thr)
            for name, thr in USE_CASE_THRESHOLDS_MS.items()}


def segment_stats(inter_arrivals_ms, target_ms: float) -> SegmentStats:
    data = list(inter_arrivals_ms)
    if not data:
        raise EmptyInput("segment with no inter-arrivals")
    return SegmentStats(
        target_ms=target_ms,
        mean_ms=float(np.mean(data)),
        stdev_ms=float(np.std(data)),
        p95_jitter_ms=jitter_p95(data, target_ms),
        count=len(data),
    )
