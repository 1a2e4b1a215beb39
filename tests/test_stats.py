"""Statistics primitives against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.stats import (
    EmptyInput,
    ExperimentSummary,
    SegmentStats,
    compliance_fraction,
    compliance_table,
    ecdf,
    jitter_p95,
    percentile,
    segment_stats,
)


def nearest_rank_oracle(values, p):
    data = sorted(values)
    if p == 0:
        return data[0]
    import math
    return data[math.ceil(p / 100 * len(data)) - 1]


class TestPercentile:
    def test_1_to_100(self):
        assert percentile(range(1, 101), 95) == 95

    def test_singleton(self):
        for p in (0, 37, 50, 100):
            assert percentile([7], p) == 7

    def test_uniform_median(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, 10_000)
        assert percentile(vals, 50) == pytest.approx(0.5, abs=0.02)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=500),
           st.floats(0, 100))
    @settings(max_examples=200)
    def test_matches_oracle(self, values, p):
        assert percentile(values, p) == nearest_rank_oracle(values, p)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            percentile([], 50)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestCompliance:
    def test_half_below(self):
        assert compliance_fraction([5, 9, 11, 20], 10) == 0.5

    def test_all_below(self):
        assert compliance_fraction([1, 2, 3], 10) == 1.0

    def test_strict_inequality(self):
        assert compliance_fraction([10.0], 10.0) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        vals = rng.exponential(8.0, 500)
        fracs = [compliance_fraction(vals, t) for t in (20, 10, 5, 1)]
        assert fracs == sorted(fracs, reverse=True)

    def test_table_keys(self):
        table = compliance_table([0.5, 4.0, 15.0])
        assert set(table) == {"vehicular_perception", "uav_tracking",
                              "industrial_control", "beam_management"}
        assert table["uav_tracking"] >= table["vehicular_perception"]

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            compliance_fraction([], 1.0)


class TestJitter:
    def test_perfect_stream_zero(self):
        assert jitter_p95([10.0] * 50, 10.0) == 0.0

    def test_nearest_rank_example(self):
        assert jitter_p95([10, 10, 12], 10) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            jitter_p95([], 10.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            jitter_p95([1.0], 0.0)


class TestEcdf:
    def test_three_values(self):
        assert ecdf([1, 2, 3]) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    def test_duplicates_collapse(self):
        points = ecdf([5, 5, 5, 7])
        assert points == [(5, 0.75), (7, 1.0)]

    def test_min_has_fraction_1_over_n(self):
        points = ecdf([4, 9, 2, 8])
        assert points[0] == (2, 0.25)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_nondecreasing_ends_at_one(self, values):
        points = ecdf(values)
        fracs = [f for _, f in points]
        vals = [v for v, _ in points]
        assert vals == sorted(vals)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    @given(st.lists(st.floats(0, 100, allow_nan=False, width=32),
                    min_size=1, max_size=200),
           st.floats(0, 100))
    @settings(max_examples=100)
    def test_consistent_with_compliance(self, values, threshold):
        # Fraction strictly below t equals the ECDF just left of t.
        frac_below = compliance_fraction(values, threshold)
        cdf_below = max((f for v, f in ecdf(values) if v < threshold), default=0.0)
        assert frac_below == pytest.approx(cdf_below)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            ecdf([])


class TestSummary:
    def test_percentile_ordering_enforced(self):
        with pytest.raises(ValueError):
            ExperimentSummary(telemetry_ms={"p50": 5.0, "p95": 2.0, "p99": 8.0})

    def test_compliance_range_enforced(self):
        with pytest.raises(ValueError):
            ExperimentSummary(compliance={"x": 1.5})

    def test_json_round_trip(self):
        import json
        summary = ExperimentSummary(
            segments=[SegmentStats(10.0, 10.1, 0.5, 0.8, 100)],
            telemetry_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0},
            compliance={"vehicular_perception": 0.93},
            sample_count=100,
        )
        doc = json.loads(json.dumps(summary.to_dict()))
        assert doc["percentile_method"] == "nearest-rank"
        assert doc["telemetry_ms"]["p95"] == 2.0
        assert doc["control_ms"] == {"p50": None, "p95": None, "p99": None}
        assert doc["reference_prototype"]["closed_loop_median_ms"] == 4.6
        assert "not asserted" in doc["reference_prototype"]["note"]


def test_segment_stats():
    s = segment_stats([10.0, 10.2, 9.8, 10.0], 10.0)
    assert s.mean_ms == pytest.approx(10.0)
    assert s.count == 4
    assert s.p95_jitter_ms == pytest.approx(0.2)
