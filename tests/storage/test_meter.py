"""Tests for repro.storage.meter."""

import pytest

from repro import units
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.meter import PowerMeter
from repro.storage.power import ControllerPowerModel, PowerState
from repro.storage.virtualization import BlockVirtualization

from tests.io_helpers import io_fields


def make_meter(count=2):
    encs = [
        DiskEnclosure(f"e{i}", capacity_bytes=units.GB) for i in range(count)
    ]
    return PowerMeter(encs, ControllerPowerModel(base_watts=100.0)), encs


class TestPowerMeter:
    def test_requires_enclosures(self):
        with pytest.raises(ValueError):
            PowerMeter([])

    def test_idle_reading(self):
        meter, encs = make_meter()
        reading = meter.read(100.0)
        idle = encs[0].power_model.idle_watts
        assert reading.enclosure_watts == pytest.approx(2 * idle)
        assert reading.controller_watts == pytest.approx(100.0)

    def test_total_is_sum(self):
        meter, _ = make_meter()
        reading = meter.read(50.0)
        assert reading.total_watts == pytest.approx(
            reading.enclosure_watts + reading.controller_watts
        )
        assert reading.total_joules == pytest.approx(
            reading.enclosure_joules + reading.controller_joules
        )

    def test_reading_settles_enclosures(self):
        meter, encs = make_meter()
        meter.read(123.0)
        assert all(e.clock >= 123.0 for e in encs)

    def test_controller_io_counted(self):
        meter, encs = make_meter(1)
        virt = BlockVirtualization(encs)
        virt.create_volume("v0", "e0")
        virt.add_item("a", units.MB, "v0")
        controller = StorageController(virt, StorageCache())
        from repro.trace.records import IOType, LogicalIORecord

        record = LogicalIORecord(1.0, "a", 0, 4096, IOType.READ)
        controller.submit(*io_fields(record))
        with_io = meter.read(10.0, controller)
        fresh_meter, _ = make_meter(1)
        without_io = fresh_meter.read(10.0)
        assert with_io.controller_joules > without_io.controller_joules

    def test_non_positive_duration_rejected(self):
        meter, _ = make_meter()
        with pytest.raises(ValueError):
            meter.read(0.0)

    def test_state_breakdown_sums_to_duration(self):
        meter, encs = make_meter(3)
        encs[0].submit(1.0)
        encs[1].enable_power_off(0.0)
        meter.read(1000.0)  # settles every enclosure to t = 1000 s
        breakdown = {
            state: sum(enc.time_in_state(state) for enc in encs)
            for state in PowerState
        }
        assert sum(breakdown.values()) == pytest.approx(3 * 1000.0)
        assert breakdown[PowerState.OFF] > 0  # enc 1 slept
