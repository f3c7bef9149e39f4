"""Tests: §III repositories wired into the monitors."""

from dataclasses import astuple

from repro.monitoring.application import ApplicationMonitor
from repro.monitoring.repository import TraceRepository
from repro.monitoring.storage import StorageMonitor
from repro.storage.enclosure import DiskEnclosure
from repro.trace.records import (
    IOType,
    LogicalIORecord,
    PhysicalIORecord,
)

from tests.io_helpers import io_fields


def logical(t):
    return LogicalIORecord(t, "a", 0, 4096, IOType.READ)


def physical(t):
    return PhysicalIORecord(t, "e0", 0, 1, IOType.READ)


class TestApplicationMonitorRepository:
    def test_records_flow_into_repository(self, tmp_path):
        repo = TraceRepository(LogicalIORecord, spill_dir=tmp_path)
        monitor = ApplicationMonitor(repository=repo)
        monitor.record(*io_fields(logical(1.0)), 0.1)
        monitor.record(*io_fields(logical(2.0)), 0.1)
        assert len(repo) == 2

    def test_repository_survives_window_resets(self, tmp_path):
        repo = TraceRepository(LogicalIORecord, spill_dir=tmp_path)
        monitor = ApplicationMonitor(repository=repo)
        monitor.record(*io_fields(logical(1.0)), 0.1)
        monitor.begin_window(10.0)
        monitor.record(*io_fields(logical(11.0)), 0.1)
        assert [r.timestamp for r in repo] == [1.0, 11.0]

    def test_spill_behaviour_preserved(self, tmp_path):
        repo = TraceRepository(
            LogicalIORecord, max_memory_records=2, spill_dir=tmp_path
        )
        monitor = ApplicationMonitor(repository=repo)
        for t in range(6):
            monitor.record(*io_fields(logical(float(t))), 0.1)
        assert len(repo) == 6
        assert len(list(tmp_path.glob("spill-*.csv"))) == 1

    def test_no_repository_is_fine(self):
        monitor = ApplicationMonitor()
        monitor.record(*io_fields(logical(1.0)), 0.1)
        assert monitor.io_count == 1


class TestStorageMonitorRepository:
    def test_physical_records_flow_into_repository(self, tmp_path):
        repo = TraceRepository(PhysicalIORecord, spill_dir=tmp_path)
        monitor = StorageMonitor([DiskEnclosure("e0")], repository=repo)
        monitor.on_physical(physical(1.0))
        monitor.on_physical(physical(2.0))
        assert len(repo) == 2
        assert all(isinstance(r, PhysicalIORecord) for r in repo)

    def test_interval_tracking_unaffected(self, tmp_path):
        repo = TraceRepository(PhysicalIORecord, spill_dir=tmp_path)
        monitor = StorageMonitor([DiskEnclosure("e0")], repository=repo)
        monitor.on_physical(physical(0.0))
        monitor.on_physical(physical(100.0))
        assert monitor.intervals("e0") == [100.0]

    def test_record_tap_stores_field_equal_records(self, tmp_path):
        # on_physical delegates to on_physical_fast, which stores a fresh
        # record: every field must survive, spilled records included.
        repo = TraceRepository(
            PhysicalIORecord, max_memory_records=2, spill_dir=tmp_path
        )
        monitor = StorageMonitor(
            [DiskEnclosure("e0"), DiskEnclosure("e1")], repository=repo
        )
        sent = [
            PhysicalIORecord(1.0, "e0", 7, 2, IOType.READ, "item-a"),
            PhysicalIORecord(2.0, "e1", 9, 1, IOType.WRITE, None),
            PhysicalIORecord(3.5, "e0", 11, 3, IOType.WRITE, "item-b"),
        ]
        for record in sent:
            monitor.on_physical(record)
        assert list(tmp_path.glob("spill-*.csv"))
        assert [astuple(r) for r in repo] == [astuple(r) for r in sent]
        assert monitor.physical_io_count == 6
