"""Tests for repro.storage.tiers and the tiered virtualization layer."""

import pytest

from repro import units
from repro.errors import ValidationError
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import PowerState
from repro.storage.tiers import (
    ARCHIVE_COST_PER_BYTE,
    FLASH_COST_PER_BYTE,
    HDD_COST_PER_BYTE,
    ArchiveTier,
    FlashTier,
    StorageTier,
    TierKind,
    TierLedger,
)
from repro.storage.virtualization import BlockVirtualization


def make_tiered_virt(capacity=units.GB):
    """Two HDDs + one flash + one archive device, one volume each."""
    devices = [
        DiskEnclosure("hdd-0", capacity_bytes=capacity),
        DiskEnclosure("hdd-1", capacity_bytes=capacity),
        FlashTier("flash-0", capacity_bytes=capacity),
        ArchiveTier("arc-0", capacity_bytes=capacity),
    ]
    tiers = (
        StorageTier(
            name="flash",
            kind=TierKind.FLASH,
            devices=("flash-0",),
            cost_per_byte=FLASH_COST_PER_BYTE,
        ),
        StorageTier(
            name="hdd",
            kind=TierKind.HDD,
            devices=("hdd-0", "hdd-1"),
            cost_per_byte=HDD_COST_PER_BYTE,
        ),
        StorageTier(
            name="archive",
            kind=TierKind.ARCHIVE,
            devices=("arc-0",),
            cost_per_byte=ARCHIVE_COST_PER_BYTE,
        ),
    )
    virt = BlockVirtualization(devices, tiers=tiers)
    for device in devices:
        virt.create_volume(f"vol/{device.name}", device.name)
    return virt


class TestTierKind:
    def test_ranks_order_fastest_to_coldest(self):
        assert TierKind.FLASH.rank < TierKind.HDD.rank < TierKind.ARCHIVE.rank

    def test_costs_order_matches_technology(self):
        assert FLASH_COST_PER_BYTE > HDD_COST_PER_BYTE > ARCHIVE_COST_PER_BYTE


class TestStorageTier:
    def test_rejects_empty_name_and_devices(self):
        with pytest.raises(ValidationError):
            StorageTier(
                name="", kind=TierKind.HDD, devices=("d",), cost_per_byte=1.0
            )
        with pytest.raises(ValidationError):
            StorageTier(
                name="hdd", kind=TierKind.HDD, devices=(), cost_per_byte=1.0
            )

    def test_rejects_duplicate_devices_and_bad_cost(self):
        with pytest.raises(ValidationError):
            StorageTier(
                name="hdd",
                kind=TierKind.HDD,
                devices=("d", "d"),
                cost_per_byte=1.0,
            )
        with pytest.raises(ValidationError):
            StorageTier(
                name="hdd", kind=TierKind.HDD, devices=("d",), cost_per_byte=0.0
            )


class TestFlashTier:
    def test_power_off_enablement_is_ignored(self):
        flash = FlashTier("flash-0", capacity_bytes=units.GB)
        flash.enable_power_off(0.0)
        flash.settle(units.HOUR)
        assert flash.state in (PowerState.ACTIVE, PowerState.IDLE)
        assert flash.state is not PowerState.OFF

    def test_faster_than_default_hdd(self):
        flash = FlashTier("flash-0")
        hdd = DiskEnclosure("hdd-0")
        assert flash.iops_random > hdd.iops_random


class TestArchiveTier:
    def test_spins_down_once_enabled(self):
        archive = ArchiveTier("arc-0", capacity_bytes=units.GB)
        archive.enable_power_off(0.0)
        archive.settle(units.HOUR)
        assert archive.state is PowerState.OFF

    def test_slower_than_default_hdd(self):
        archive = ArchiveTier("arc-0")
        hdd = DiskEnclosure("hdd-0")
        assert archive.iops_random < hdd.iops_random


class TestTierLedger:
    def test_net_bytes_is_exact_integer_arithmetic(self):
        ledger = TierLedger()
        ledger.register_tier("hdd")
        ledger.record_in("hdd", 512)
        ledger.record_in("hdd", 256)
        ledger.record_out("hdd", 128)
        assert ledger.net_bytes("hdd") == 640

    def test_snapshot_restore_round_trip(self):
        """The ledger is captured as a value of its virtualization."""
        virt = make_tiered_virt()
        virt.add_item("a", 10 * units.MB, "vol/hdd-0")
        virt.move_item("a", "flash-0")
        other = make_tiered_virt()
        other.restore_state(virt.snapshot_state())
        assert other.tier_ledger == virt.tier_ledger
        assert other.tier_ledger is not virt.tier_ledger
        assert other.tier_ledger.net_bytes("flash") == virt.item_size("a")

    def test_rejects_negative_sizes(self):
        ledger = TierLedger()
        ledger.register_tier("hdd")
        with pytest.raises(ValidationError):
            ledger.record_in("hdd", -1)
        with pytest.raises(ValidationError):
            ledger.record_out("hdd", -1)


class TestTieredVirtualization:
    def test_legacy_construction_gets_implicit_hdd_tier(self):
        virt = BlockVirtualization(
            [DiskEnclosure("e0", capacity_bytes=units.GB)]
        )
        assert virt.tier_names == ["hdd"]
        assert virt.tier_of_device("e0").kind is TierKind.HDD

    def test_tier_lookups(self):
        virt = make_tiered_virt()
        assert virt.devices_in_tier("hdd") == ("hdd-0", "hdd-1")
        assert virt.tier_of_device("flash-0").name == "flash"
        virt.add_item("a", 10 * units.MB, "vol/hdd-0")
        assert virt.tier_of_item("a").name == "hdd"

    def test_cross_tier_move_records_ledger(self):
        virt = make_tiered_virt()
        virt.add_item("a", 10 * units.MB, "vol/hdd-0")
        size = virt.item_size("a")
        hdd_net = virt.tier_ledger.net_bytes("hdd")
        virt.move_item("a", "flash-0")
        assert virt.tier_of_item("a").name == "flash"
        assert virt.tier_ledger.net_bytes("hdd") == hdd_net - size
        assert virt.tier_ledger.net_bytes("flash") == size

    def test_same_tier_move_leaves_ledger_unchanged(self):
        virt = make_tiered_virt()
        virt.add_item("a", 10 * units.MB, "vol/hdd-0")
        before = virt.tier_ledger.net_bytes("hdd")
        virt.move_item("a", "hdd-1")
        assert virt.tier_ledger.net_bytes("hdd") == before

    def test_replicas_tracked_separately_from_placement(self):
        virt = make_tiered_virt()
        virt.add_item("a", 10 * units.MB, "vol/flash-0")
        size = virt.item_size("a")
        used_before = virt.used_bytes("hdd-0")
        assert virt.add_replica("a", "hdd-0") == size
        assert virt.replicas_of("a") == ("hdd-0",)
        assert virt.replica_bytes_on("hdd-0") == size
        # Replica bytes are accounted next to, never inside, used_bytes.
        assert virt.used_bytes("hdd-0") == used_before
        assert virt.remove_replica("a", "hdd-0") == size
        assert virt.replicas_of("a") == ()
        assert virt.replica_bytes_on("hdd-0") == 0

    def test_snapshot_restore_preserves_replicas_and_ledger(self):
        virt = make_tiered_virt()
        virt.add_item("a", 10 * units.MB, "vol/hdd-0")
        virt.move_item("a", "flash-0")
        virt.add_replica("a", "hdd-1")
        state = virt.snapshot_state()
        other = make_tiered_virt()
        other.restore_state(state)
        assert other.tier_of_item("a").name == "flash"
        assert other.replicas_of("a") == ("hdd-1",)
        assert other.tier_ledger.net_bytes("flash") == virt.item_size("a")
        assert other.snapshot_state() == state
