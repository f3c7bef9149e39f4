"""Tests for repro.monitoring.storage."""

import pytest

from repro.monitoring.storage import StorageMonitor
from repro.storage.enclosure import DiskEnclosure
from repro.trace.records import IOType, PhysicalIORecord


def monitor(count=2):
    encs = [DiskEnclosure(f"e{i}") for i in range(count)]
    return StorageMonitor(encs), encs


def phys(t, enclosure="e0", count=1, kind=IOType.READ):
    return PhysicalIORecord(t, enclosure, 0, count, kind)


class TestPhysicalTrace:
    def test_counts_accumulate(self):
        mon, _ = monitor()
        mon.on_physical(phys(1.0))
        mon.on_physical(phys(2.0, count=3))
        assert mon.physical_io_count == 4

    def test_window_stats(self):
        mon, _ = monitor()
        mon.begin_window(0.0)
        mon.on_physical(phys(1.0, "e0"))
        mon.on_physical(phys(2.0, "e0", kind=IOType.WRITE))
        stats = mon.window_stats(10.0)
        assert stats == {"e0": 2 / 10.0, "e1": 0.0}
        assert all(type(iops) is float for iops in stats.values())

    def test_begin_window_resets_counts(self):
        mon, _ = monitor()
        mon.on_physical(phys(1.0))
        mon.begin_window(5.0)
        assert mon.window_stats(10.0)["e0"] == 0.0

    def test_zero_window_iops(self):
        mon, _ = monitor()
        mon.begin_window(5.0)
        assert mon.window_stats(5.0) == {"e0": 0.0, "e1": 0.0}
        assert mon.window_stats(4.0) == {"e0": 0.0, "e1": 0.0}


class TestIntervals:
    def test_gaps_recorded(self):
        mon, _ = monitor()
        mon.on_physical(phys(0.0))
        mon.on_physical(phys(10.0))
        mon.on_physical(phys(70.0))
        assert mon.intervals("e0") == [10.0, 60.0]

    def test_tiny_gaps_not_retained(self):
        mon, _ = monitor()
        mon.on_physical(phys(0.0))
        mon.on_physical(phys(0.01))
        assert mon.intervals("e0") == []

    def test_finish_closes_final_gap(self):
        mon, _ = monitor()
        mon.on_physical(phys(10.0))
        mon.finish(100.0)
        assert 90.0 in mon.intervals("e0")

    def test_finish_idempotent(self):
        mon, _ = monitor()
        mon.on_physical(phys(10.0))
        mon.finish(100.0)
        mon.finish(200.0)
        assert mon.intervals("e0").count(90.0) == 1

    def test_silent_enclosure_contributes_whole_run(self):
        mon, _ = monitor()
        mon.finish(500.0)
        assert mon.intervals("e1") == [500.0]

    def test_all_intervals_merges(self):
        mon, _ = monitor()
        mon.on_physical(phys(0.0, "e0"))
        mon.on_physical(phys(5.0, "e0"))
        mon.on_physical(phys(0.0, "e1"))
        mon.on_physical(phys(7.0, "e1"))
        assert sorted(mon.all_intervals()) == [5.0, 7.0]

    def test_unknown_enclosure_rejected(self):
        mon, _ = monitor()
        with pytest.raises(KeyError):
            mon.intervals("ghost")

    def test_last_io_time(self):
        mon, _ = monitor()
        assert mon.last_io_time("e0") is None
        mon.on_physical(phys(42.0))
        assert mon.last_io_time("e0") == 42.0


class TestPowerViews:
    def test_spin_up_counters(self):
        mon, encs = monitor()
        encs[0].enable_power_off(0.0)
        encs[0].settle(500.0)
        encs[0].submit(500.0)
        assert mon.spin_up_count("e0") == 1
        assert mon.spin_ups_since("e0", 400.0) == 1
        assert mon.spin_ups_since("e0", 600.0) == 0
