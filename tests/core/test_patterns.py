"""Tests for repro.core.patterns — P0-P3 classification."""

import pytest

from repro.core.intervals import extract_activity
from repro.core.patterns import (
    IOPattern,
    build_profiles,
    pattern_counts,
    pattern_fractions,
)
from repro.trace.records import IOType, LogicalIORecord

from tests.core.profile_helpers import activity_pattern, make_table, table_rows

BE = 52.0


def classify_events(events, end=1000.0):
    return activity_pattern(extract_activity("x", events, 0.0, end, BE))


class TestClassify:
    def test_no_io_is_p0(self):
        assert classify_events([]) is IOPattern.P0

    def test_dense_io_is_p3(self):
        events = [(float(t), True) for t in range(0, 1000, 40)]
        assert classify_events(events) is IOPattern.P3

    def test_read_heavy_with_long_interval_is_p1(self):
        events = [(1.0, True), (2.0, True), (3.0, False)]
        assert classify_events(events) is IOPattern.P1

    def test_write_heavy_with_long_interval_is_p2(self):
        events = [(1.0, False), (2.0, False), (3.0, True)]
        assert classify_events(events) is IOPattern.P2

    def test_exactly_half_reads_is_p2(self):
        # Paper: "If more than half of the I/Os are read I/Os, then P1;
        # otherwise P2."
        events = [(1.0, True), (2.0, False)]
        assert classify_events(events) is IOPattern.P2


def rec(t, item, kind=IOType.READ, size=4096):
    return LogicalIORecord(t, item, 0, size, kind)


def table_for(records, sizes=None, end=1000.0):
    items = sizes or {"a": 1 << 20, "b": 1 << 20}
    locations = {item: "e0" for item in items}
    return build_profiles(records, 0.0, end, BE, items, locations)


def profiles_for(records, sizes=None, end=1000.0):
    return table_rows(table_for(records, sizes, end))


class TestBuildProfiles:
    def test_items_without_io_are_p0(self):
        profiles = profiles_for([rec(1.0, "a")])
        assert profiles["b"].pattern is IOPattern.P0

    def test_mean_iops(self):
        records = [rec(float(t), "a") for t in range(10)]
        profiles = profiles_for(records, end=100.0)
        assert profiles["a"].mean_iops == pytest.approx(0.1)

    def test_peak_iops_reflects_bursts(self):
        # 10 I/Os inside one 60 s bucket of a 600 s window.
        records = [rec(float(t), "a") for t in range(10)]
        profiles = profiles_for(records, end=600.0)
        assert profiles["a"].peak_iops == pytest.approx(10 / 60.0)
        assert profiles["a"].mean_iops == pytest.approx(10 / 600.0)

    def test_bucket_counts_aligned_to_window(self):
        records = [rec(10.0, "a"), rec(70.0, "a")]
        profiles = profiles_for(records, end=120.0)
        assert profiles["a"].bucket_counts == (1, 1)

    def test_read_write_bytes(self):
        records = [
            rec(1.0, "a", IOType.READ, size=100),
            rec(2.0, "a", IOType.WRITE, size=300),
        ]
        profiles = profiles_for(records)
        assert profiles["a"].read_bytes == 100
        assert profiles["a"].write_bytes == 300

    def test_enclosure_and_size_attached(self):
        profiles = profiles_for([rec(1.0, "a")])
        assert profiles["a"].enclosure == "e0"
        assert profiles["a"].size_bytes == 1 << 20

    def test_reads_per_byte(self):
        records = [rec(float(t), "a") for t in range(4)]
        profiles = profiles_for(records, sizes={"a": 2})
        assert profiles["a"].read_count / profiles["a"].size_bytes == pytest.approx(2.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            build_profiles([], 10.0, 10.0, BE, {}, {})

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            build_profiles([], 0.0, 10.0, BE, {}, {}, iops_bucket_seconds=0)


class TestAggregations:
    def test_pattern_counts(self):
        counts = pattern_counts(table_for([rec(1.0, "a")]))
        assert counts[IOPattern.P0] == 1  # item b
        assert sum(counts.values()) == 2

    def test_pattern_fractions_sum_to_one(self):
        fractions = pattern_fractions(table_for([rec(1.0, "a")]))
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_pattern_fractions_empty(self):
        fractions = pattern_fractions(make_table({}))
        assert all(v == 0.0 for v in fractions.values())
