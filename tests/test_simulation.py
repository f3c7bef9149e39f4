"""Tests for repro.simulation — context assembly."""

import pytest

from repro import units
from repro.config import DEFAULT_CONFIG
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields


class TestBuildContext:
    def test_enclosure_count(self):
        context = build_context(DEFAULT_CONFIG, 5)
        assert len(context.enclosures) == 5
        assert context.enclosure_names() == [f"enc-{i:02d}" for i in range(5)]

    def test_zero_enclosures_rejected(self):
        with pytest.raises(ValueError):
            build_context(DEFAULT_CONFIG, 0)

    def test_default_volumes_created(self):
        context = build_context(DEFAULT_CONFIG, 2)
        for name in context.enclosure_names():
            volume = context.virtualization.volume(default_volume(name))
            assert volume.enclosure == name

    def test_enclosures_carry_config(self):
        context = build_context(DEFAULT_CONFIG, 1)
        enclosure = context.enclosures[0]
        assert enclosure.capacity_bytes == DEFAULT_CONFIG.enclosure_size_bytes
        assert enclosure.spin_down_timeout == DEFAULT_CONFIG.spin_down_timeout
        assert enclosure.iops_random == pytest.approx(
            DEFAULT_CONFIG.service_iops_random
        )

    def test_cache_partition_sizes(self):
        context = build_context(DEFAULT_CONFIG, 1)
        assert (
            context.cache.preload.capacity_bytes
            == DEFAULT_CONFIG.preload_cache_bytes
        )
        assert (
            context.cache.write_delay.capacity_bytes
            == DEFAULT_CONFIG.write_delay_cache_bytes
        )

    def test_storage_monitor_wired_to_controller(self):
        context = build_context(DEFAULT_CONFIG, 1)
        context.virtualization.add_item(
            "a", units.MB, default_volume("enc-00")
        )
        context.controller.submit(
            *io_fields(LogicalIORecord(1.0, "a", 0, 4096, IOType.READ))
        )
        assert context.storage_monitor.physical_io_count == 1

    def test_meter_covers_all_enclosures(self):
        context = build_context(DEFAULT_CONFIG, 3)
        reading = context.meter.read(100.0)
        idle = DEFAULT_CONFIG.enclosure_power.idle_watts
        assert reading.enclosure_watts == pytest.approx(3 * idle)

    def test_custom_prefix(self):
        context = build_context(DEFAULT_CONFIG, 1, enclosure_prefix="disk")
        assert context.enclosure_names() == ["disk-00"]
