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

    def test_hdd_only_has_one_hdd_tier(self):
        context = build_context(DEFAULT_CONFIG, 3)
        virt = context.virtualization
        assert virt.tier_names == ["hdd"]
        assert virt.devices_in_tier("hdd") == ("enc-00", "enc-01", "enc-02")


class TestTierShapes:
    def test_devices_follow_the_hdds(self):
        context = build_context(
            DEFAULT_CONFIG, 2, flash_count=2, archive_count=1
        )
        assert context.enclosure_names() == [
            "enc-00", "enc-01", "flash-00", "flash-01", "arc-00",
        ]
        virt = context.virtualization
        assert virt.tier_names == ["flash", "hdd", "archive"]
        assert virt.devices_in_tier("flash") == ("flash-00", "flash-01")
        assert virt.devices_in_tier("archive") == ("arc-00",)
        assert virt.volume(default_volume("arc-00")).enclosure == "arc-00"

    def test_capacities_from_config(self):
        context = build_context(
            DEFAULT_CONFIG, 1, flash_count=1, archive_count=1
        )
        virt = context.virtualization
        assert (
            virt.enclosure("flash-00").capacity_bytes
            == DEFAULT_CONFIG.flash_capacity_bytes
        )
        assert (
            virt.enclosure("arc-00").capacity_bytes
            == DEFAULT_CONFIG.archive_capacity_bytes
        )

    @pytest.mark.parametrize(
        "flash, archive, tiers",
        [
            (1, 0, ["flash", "hdd"]),
            (0, 1, ["hdd", "archive"]),
        ],
    )
    def test_a_tier_exists_only_with_devices(self, flash, archive, tiers):
        context = build_context(
            DEFAULT_CONFIG, 2, flash_count=flash, archive_count=archive
        )
        assert context.virtualization.tier_names == tiers

    def test_array_id_prefixes_every_device(self):
        context = build_context(
            DEFAULT_CONFIG, 1, flash_count=1, archive_count=1, array_id="a1"
        )
        assert context.enclosure_names() == [
            "a1:enc-00", "a1:flash-00", "a1:arc-00",
        ]

    @pytest.mark.parametrize("flash, archive", [(-1, 0), (0, -1)])
    def test_negative_counts_rejected(self, flash, archive):
        with pytest.raises(ValueError):
            build_context(
                DEFAULT_CONFIG, 2, flash_count=flash, archive_count=archive
            )
