"""Tests for repro.monitoring.application."""

import pytest

from repro.monitoring.application import ApplicationMonitor
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields


def rec(t, item="a", kind=IOType.READ):
    return LogicalIORecord(t, item, 0, 4096, kind)


class TestMapping:
    def test_register_and_lookup(self):
        monitor = ApplicationMonitor()
        monitor.register_item("a", "vol0")
        assert monitor.volume_of("a") == "vol0"
        assert monitor.known_items() == {"a"}

    def test_unregister(self):
        monitor = ApplicationMonitor()
        monitor.register_item("a", "vol0")
        monitor.unregister_item("a")
        assert monitor.volume_of("a") is None

    def test_unknown_item_returns_none(self):
        assert ApplicationMonitor().volume_of("ghost") is None


class TestWindowBuffer:
    def test_records_accumulate_in_window(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0)), 0.1)
        monitor.record(*io_fields(rec(2.0, "b", IOType.WRITE)), 0.1)
        assert len(monitor.window_columns()) == 2
        assert monitor.window_columns().profile_arrays() == (
            [1.0, 2.0],
            ["a", "b"],
            [4096, 4096],
            [True, False],
        )

    def test_begin_window_clears_buffer(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0)), 0.1)
        monitor.begin_window(5.0)
        assert len(monitor.window_columns()) == 0
        assert monitor.window_start == 5.0


class TestResponseStats:
    def test_totals(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0)), 0.5)
        monitor.record(*io_fields(rec(2.0, kind=IOType.WRITE)), 1.5)
        stats = monitor.response_stats()
        assert stats.io_count == 2
        assert stats.read_count == 1
        assert stats.mean_response == pytest.approx(1.0)
        assert stats.mean_read_response == pytest.approx(0.5)
        assert stats.max_response == 1.5

    def test_empty_stats(self):
        stats = ApplicationMonitor().response_stats()
        assert stats.mean_response == 0.0
        assert stats.mean_read_response == 0.0

    def test_stats_survive_window_reset(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0)), 0.5)
        monitor.begin_window(10.0)
        monitor.record(*io_fields(rec(11.0)), 1.5)
        assert monitor.response_stats().io_count == 2

    def test_response_samples_kept(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0)), 0.5)
        monitor.record(*io_fields(rec(2.0, kind=IOType.WRITE)), 0.7)
        assert monitor.response_samples == [
            (1.0, 0.5, True),
            (2.0, 0.7, False),
        ]

    def test_per_item_counters(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(rec(1.0, "a")), 0.1)
        monitor.record(*io_fields(rec(2.0, "a")), 0.1)
        monitor.record(*io_fields(rec(3.0, "b")), 0.1)
        assert monitor.ios_per_item["a"] == 2
        assert monitor.ios_per_item["b"] == 1

