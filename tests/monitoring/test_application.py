"""Tests for repro.monitoring.application."""

import pytest

from repro.errors import SnapshotError
from repro.monitoring.application import ApplicationMonitor
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord


def rec(t, item="a", kind=IOType.READ):
    return LogicalIORecord(t, item, 0, 4096, kind)


def served(records, responses):
    """A monitor attached to ``records`` that served one row per response."""
    monitor = ApplicationMonitor()
    monitor.attach(ColumnarTrace.from_records(records), 0)
    for response in responses:
        monitor.record(response)
    return monitor


class TestMapping:
    def test_register_and_lookup(self):
        monitor = ApplicationMonitor()
        monitor.register_item("a", "vol0")
        assert monitor.volume_of("a") == "vol0"

    def test_unknown_item_returns_none(self):
        assert ApplicationMonitor().volume_of("ghost") is None


class TestWindowBuffer:
    def test_records_accumulate_in_window(self):
        records = [rec(1.0), rec(2.0, "b", IOType.WRITE), rec(3.0)]
        monitor = served(records, [0.1, 0.1])
        # Only served rows are in the window: the third is not yet.
        assert list(monitor.window_columns()) == records[:2]

    def test_begin_window_clears_buffer(self):
        monitor = served([rec(1.0), rec(6.0, "b")], [0.1])
        monitor.begin_window(5.0)
        assert len(monitor.window_columns()) == 0
        assert monitor.window_start == 5.0
        assert monitor.window_row == 1
        monitor.record(0.2)
        assert list(monitor.window_columns()) == [rec(6.0, "b")]

    def test_window_is_a_view_of_the_trace(self):
        monitor = served([rec(1.0), rec(2.0)], [0.1, 0.1])
        window = monitor.window_columns()
        assert isinstance(window.timestamps, memoryview)
        assert window.timestamps.obj is monitor._trace.timestamps

    def test_zone_monitor_windows_its_source_rows(self):
        array = served([rec(1.0), rec(2.0, "b"), rec(3.0)], [0.1])
        zone = ApplicationMonitor(array)
        zone.begin_window(1.5)
        array.record(0.2)
        array.record(0.3)
        assert list(zone.window_columns()) == [rec(2.0, "b"), rec(3.0)]
        assert list(array.window_columns()) == [rec(1.0), rec(2.0, "b"), rec(3.0)]
        assert zone.snapshot_state()["_responses"] == ()


class TestResponseStats:
    def test_totals(self):
        monitor = served([rec(1.0), rec(2.0, kind=IOType.WRITE)], [0.5, 1.5])
        stats = monitor.response_stats()
        assert stats.io_count == 2
        assert stats.read_count == 1
        assert stats.mean_response == pytest.approx(1.0)
        assert stats.mean_read_response == pytest.approx(0.5)
        assert stats.max_response == 1.5

    def test_empty_stats(self):
        stats = ApplicationMonitor().response_stats()
        assert stats.io_count == 0
        assert stats.mean_response == 0.0
        assert stats.mean_read_response == 0.0
        assert stats.max_response == 0.0

    def test_stats_survive_window_reset(self):
        monitor = served([rec(1.0), rec(11.0)], [0.5])
        monitor.begin_window(10.0)
        monitor.record(1.5)
        assert monitor.response_stats().io_count == 2

    def test_response_samples_kept(self):
        monitor = served([rec(1.0), rec(2.0, kind=IOType.WRITE)], [0.5, 0.7])
        assert monitor.response_samples == [
            (1.0, 0.5, True),
            (2.0, 0.7, False),
        ]


class TestAttach:
    def test_response_count_must_match_the_cursor(self):
        monitor = served([rec(1.0), rec(2.0)], [0.5])
        state = monitor.snapshot_state()
        fresh = ApplicationMonitor()
        fresh.restore_state(state)
        trace = ColumnarTrace.from_records([rec(1.0), rec(2.0)])
        with pytest.raises(SnapshotError, match="1 responses"):
            fresh.attach(trace, 2)
        fresh.attach(trace, 1)
        fresh.record(0.25)
        assert fresh.response_samples == [(1.0, 0.5, True), (2.0, 0.25, True)]
