"""Tests for repro.storage.controller."""

from typing import NamedTuple

import pytest

from repro import units
from repro.errors import MappingError
from repro.storage.cache import PAGE_BYTES, StorageCache
from repro.storage.controller import CACHE_HIT_LATENCY, StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import PowerState
from repro.storage.virtualization import BlockVirtualization
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields


class Tap(NamedTuple):
    """One call of the controller's physical tap."""

    timestamp: float
    enclosure: str
    count: int


def build(enclosures=2, cache_kwargs=None):
    encs = [
        DiskEnclosure(
            f"e{i}", iops_random=2.0, iops_sequential=6.0,
            capacity_bytes=10 * units.GB,
        )
        for i in range(enclosures)
    ]
    virt = BlockVirtualization(encs)
    for i in range(enclosures):
        virt.create_volume(f"v{i}", f"e{i}")
    virt.add_item("a", 100 * units.MB, "v0")
    virt.add_item("b", 100 * units.MB, "v1")
    cache = StorageCache(**(cache_kwargs or {}))
    taps: list[Tap] = []

    def tap(timestamp: float, enclosure: str, count: int) -> None:
        taps.append(Tap(timestamp=timestamp, enclosure=enclosure, count=count))

    controller = StorageController(virt, cache, physical_tap=tap)
    return controller, virt, cache, taps


def read(t, item="a", offset=0, size=8192, seq=False):
    return LogicalIORecord(t, item, offset, size, IOType.READ, seq)


def write(t, item="a", offset=0, size=8192, seq=False):
    return LogicalIORecord(t, item, offset, size, IOType.WRITE, seq)


class TestReadPath:
    def test_cold_read_goes_physical(self):
        controller, virt, _, taps = build()
        response = controller.submit(*io_fields(read(1.0)))
        assert response == pytest.approx(0.5)
        assert taps == [Tap(timestamp=1.0, enclosure="e0", count=1)]
        home = virt.enclosure("e0")
        assert (home.read_count, home.write_count) == (1, 0)

    def test_repeat_read_hits_lru(self):
        controller, _, _, taps = build()
        controller.submit(*io_fields(read(1.0)))
        response = controller.submit(*io_fields(read(2.0)))
        assert response == CACHE_HIT_LATENCY
        assert len(taps) == 1

    def test_multi_page_read_requires_all_pages(self):
        controller, _, _, _ = build()
        # Two pages: first read misses and inserts both.
        first = controller.submit(*io_fields(read(1.0, size=2 * PAGE_BYTES)))
        assert first > CACHE_HIT_LATENCY
        second = controller.submit(*io_fields(read(2.0, size=2 * PAGE_BYTES)))
        assert second == CACHE_HIT_LATENCY

    def test_preloaded_item_reads_hit(self):
        controller, _, cache, taps = build()
        controller.preload_item(0.0, "a")
        taps.clear()
        far = read(1.0, offset=50 * units.MB)
        response = controller.submit(*io_fields(far))
        assert response == CACHE_HIT_LATENCY
        assert taps == []

    def test_sequential_hint_uses_sequential_rate(self):
        controller, _, _, _ = build()
        response = controller.submit(*io_fields(read(1.0, seq=True)))
        assert response == pytest.approx(1.0 / 6.0)

    def test_unknown_item_rejected(self):
        controller, _, _, _ = build()
        with pytest.raises(MappingError):
            controller.submit(*io_fields(read(1.0, item="ghost")))

    @pytest.mark.parametrize("offset", [-1, 100 * units.MB])
    def test_offset_outside_item_rejected(self, offset):
        controller, virt, _, taps = build()
        with pytest.raises(MappingError, match="outside item"):
            controller.submit(1.0, "a", offset, 1, True, False)
        assert taps == []
        assert virt.enclosure("e0").io_count == 0


class TestWritePath:
    def test_normal_write_goes_physical(self):
        controller, virt, _, taps = build()
        response = controller.submit(*io_fields(write(1.0)))
        assert response == pytest.approx(0.5)
        assert taps == [Tap(timestamp=1.0, enclosure="e0", count=1)]
        home = virt.enclosure("e0")
        assert (home.read_count, home.write_count) == (0, 1)

    def test_write_delayed_item_absorbs(self):
        controller, _, cache, taps = build()
        controller.select_write_delay(0.0, {"a"})
        response = controller.submit(*io_fields(write(1.0)))
        assert response == CACHE_HIT_LATENCY
        assert taps == []
        assert cache.write_delay.dirty_pages == 1

    def test_dirty_threshold_triggers_bulk_flush(self):
        controller, virt, cache, taps = build(
            cache_kwargs=dict(
                total_bytes=4 * units.MB,
                preload_bytes=units.MB,
                write_delay_bytes=units.MB,  # 4 pages, threshold 2
                dirty_block_rate=0.5,
            )
        )
        controller.select_write_delay(0.0, {"a"})
        controller.submit(*io_fields(write(1.0, offset=0)))
        assert taps == []
        controller.submit(*io_fields(write(2.0, offset=PAGE_BYTES)))
        # Threshold reached: a bulk write burst went to e0.
        assert [t.enclosure for t in taps] == ["e0"]
        home = virt.enclosure("e0")
        assert (home.read_count, home.write_count) == (0, 1)
        assert cache.write_delay.dirty_pages == 0
        assert controller.flushed_bytes == 2 * PAGE_BYTES

    def test_deselection_flushes_dirty_data(self):
        controller, _, cache, taps = build()
        controller.select_write_delay(0.0, {"a"})
        controller.submit(*io_fields(write(1.0)))
        taps.clear()
        controller.select_write_delay(10.0, set())
        assert len(taps) == 1
        assert controller.flushed_bytes == PAGE_BYTES


class TestPreload:
    def test_preload_pins_and_costs_a_read_burst(self):
        controller, virt, cache, taps = build()
        completion = controller.preload_item(5.0, "a")
        assert cache.preload.is_pinned("a")
        assert completion > 5.0
        assert controller.preloaded_bytes == 100 * units.MB
        # One bulk I/O per megabyte, all reads on the item's home.
        assert taps == [Tap(timestamp=5.0, enclosure="e0", count=100)]
        home = virt.enclosure("e0")
        assert (home.read_count, home.write_count) == (100, 0)

    def test_preload_is_idempotent(self):
        controller, _, _, _ = build()
        controller.preload_item(0.0, "a")
        before = controller.preloaded_bytes
        controller.preload_item(1.0, "a")
        assert controller.preloaded_bytes == before

    def test_unpin(self):
        controller, _, cache, _ = build()
        controller.preload_item(0.0, "a")
        controller.unpin_item("a")
        assert not cache.preload.is_pinned("a")

    def test_unpin_never_pinned_item_is_a_noop(self):
        controller, _, cache, taps = build()
        used_before = cache.preload.used_bytes
        controller.unpin_item("a")
        assert not cache.preload.is_pinned("a")
        assert cache.preload.used_bytes == used_before
        assert taps == []

    def test_flush_item_with_zero_dirty_bytes_costs_no_io(self):
        controller, _, cache, taps = build()
        controller.select_write_delay(0.0, {"a"})
        completion = controller.flush_item(5.0, "a")
        assert completion == 5.0
        assert taps == []
        assert controller.flushed_bytes == 0
        assert cache.write_delay.is_selected("a")

    def test_flush_item_drains_only_that_item(self):
        controller, _, cache, taps = build()
        controller.select_write_delay(0.0, {"a", "b"})
        controller.submit(*io_fields(write(1.0, item="a")))
        controller.submit(*io_fields(write(2.0, item="b")))
        taps.clear()
        completion = controller.flush_item(3.0, "a")
        assert completion > 3.0
        assert cache.write_delay.dirty_bytes_of("a") == 0
        assert cache.write_delay.dirty_bytes_of("b") == PAGE_BYTES
        assert len(taps) == 1


class TestMigration:
    def test_migrate_updates_mapping_and_counters(self):
        controller, virt, _, _ = build()
        completion = controller.migrate_item(10.0, "a", "e1")
        assert virt.enclosure_of("a").name == "e1"
        assert controller.migrated_bytes == 100 * units.MB
        assert controller.migration_count == 1
        expected = 10.0 + 100 * units.MB / controller.migration_throughput_bps
        assert completion == pytest.approx(expected)

    def test_migrate_to_same_place_is_noop(self):
        controller, _, _, _ = build()
        assert controller.migrate_item(10.0, "a", "e0") == 10.0
        assert controller.migrated_bytes == 0

    def test_migration_does_not_block_application_io(self):
        controller, _, _, _ = build()
        controller.migrate_item(10.0, "a", "e1")
        response = controller.submit(*io_fields(read(11.0, item="b")))
        assert response == pytest.approx(0.5)

    def test_migration_emits_interval_markers(self):
        controller, virt, _, taps = build()
        controller.migrate_item(0.0, "a", "e1")
        # Markers alternate source, target along the copy.
        assert taps
        assert [t.enclosure for t in taps[0::2]] == ["e0"] * (len(taps) // 2)
        assert [t.enclosure for t in taps[1::2]] == ["e1"] * (len(taps) // 2)
        src, dst = virt.enclosure("e0"), virt.enclosure("e1")
        assert src.read_count > 0 and src.write_count == 0
        assert dst.write_count > 0 and dst.read_count == 0

    def test_migration_holds_enclosures_awake(self):
        controller, virt, _, _ = build()
        controller.migration_throughput_bps = 1.0 * units.MB  # 100 s copy
        src = virt.enclosure("e0")
        src.enable_power_off(0.0)
        controller.migrate_item(0.0, "a", "e1")
        src.settle(60.0)  # past the idle timeout but inside the copy
        assert src.state is PowerState.IDLE
        src.settle(200.0)  # copy done at 100 s; timeout then elapses
        assert src.state is PowerState.OFF

    def test_charge_block_migration(self):
        controller, _, _, taps = build()
        completion = controller.charge_block_migration(
            1.0, "a", 64 * units.KB, "e0", "e1"
        )
        assert controller.migrated_bytes == 64 * units.KB
        assert completion > 1.0
        assert len(taps) == 2

    def test_charge_block_migration_rejects_bad_size(self):
        controller, _, _, _ = build()
        with pytest.raises(ValueError):
            controller.charge_block_migration(1.0, "a", 0, "e0", "e1")


class TestFinish:
    def test_finish_flushes_dirty_data(self):
        controller, _, cache, _ = build()
        controller.select_write_delay(0.0, {"a"})
        controller.submit(*io_fields(write(1.0)))
        controller.finish(100.0)
        assert cache.write_delay.dirty_pages == 0

    def test_finish_settles_enclosures(self):
        controller, virt, _, _ = build()
        controller.finish(500.0)
        for enclosure in virt.enclosures():
            assert enclosure.clock >= 500.0


class TestStats:
    def test_cache_hit_ratio(self):
        controller, _, _, _ = build()
        controller.submit(*io_fields(read(1.0)))
        controller.submit(*io_fields(read(2.0)))
        assert controller.cache_hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_empty(self):
        controller, _, _, _ = build()
        assert controller.cache_hit_ratio == 0.0


class TestServiceBooks:
    def test_cache_hits_stay_off_the_books(self):
        controller, _, _, _ = build()
        controller.submit(*io_fields(read(1.0)))
        controller.submit(*io_fields(read(2.0)))
        assert controller.device_service_ios("e0") == 1
