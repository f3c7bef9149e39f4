"""Tests for repro.trace.stats."""

import pytest

from repro.trace.records import IOType, LogicalIORecord
from repro.trace.stats import summarize


def rec(t, item="a", kind=IOType.READ, size=4096, seq=False):
    return LogicalIORecord(t, item, 0, size, kind, seq)


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.record_count == 0
        assert summary.read_ratio == 0.0
        assert summary.mean_iops == 0.0

    def test_counts(self):
        summary = summarize(
            [rec(0.0), rec(1.0, kind=IOType.WRITE), rec(2.0)]
        )
        assert summary.record_count == 3
        assert summary.read_count == 2
        assert summary.write_count == 1
        assert summary.read_ratio == pytest.approx(2 / 3)

    def test_duration_and_iops(self):
        summary = summarize([rec(0.0), rec(10.0)])
        assert summary.duration == 10.0
        assert summary.mean_iops == pytest.approx(0.2)

    def test_bytes_and_items(self):
        summary = summarize(
            [rec(0.0, "a", size=100), rec(1.0, "b", size=200)]
        )
        assert summary.total_bytes == 300
        assert summary.item_count == 2
