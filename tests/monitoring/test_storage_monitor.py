"""Tests for repro.monitoring.storage."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.monitoring.storage import StorageMonitor
from repro.simulation import build_context
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
        mon = StorageMonitor([DiskEnclosure("e0")], gap_floor=0.1)
        mon.on_physical(phys(0.0))
        mon.on_physical(phys(0.01))
        assert mon.intervals("e0") == []

    def test_only_gaps_longer_than_the_floor_are_kept(self):
        mon = StorageMonitor([DiskEnclosure("e0")], gap_floor=52.0)
        for t in (0.0, 52.0, 52.5, 200.0):
            mon.on_physical(phys(t))
        mon.finish(252.0)
        assert mon.intervals("e0") == [147.5]

    def test_simultaneous_ios_leave_no_zero_gap(self):
        mon, _ = monitor()
        mon.on_physical(phys(3.0))
        mon.on_physical(phys(3.0))
        assert mon.intervals("e0") == []

    def test_build_context_keeps_gaps_longer_than_break_even(self):
        context = build_context(DEFAULT_CONFIG, 1)
        mon = context.storage_monitor
        break_even = DEFAULT_CONFIG.break_even_time
        for t in (0.0, break_even, break_even + 0.5, 4 * break_even):
            mon.on_physical_fast(t, "enc-00", 1)
        assert mon.intervals("enc-00") == [3 * break_even - 0.5]

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
