"""Tests for repro.storage.cache."""

import pytest

from repro import units
from repro.errors import CapacityError
from repro.storage.cache import (
    PAGE_BYTES,
    LRUBlockCache,
    PreloadPartition,
    StorageCache,
    WriteDelayPartition,
)
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.virtualization import BlockVirtualization


def block_read_hits(*blocks):
    """Cache hits of one-block controller reads at each of ``blocks``."""
    enclosure = DiskEnclosure("e0", capacity_bytes=units.GB)
    virt = BlockVirtualization([enclosure])
    virt.create_volume("v0", "e0")
    virt.add_item("a", units.MB, "v0")
    controller = StorageController(virt, StorageCache())
    for t, block in enumerate(blocks):
        offset = block * units.BLOCK_SIZE
        controller.submit(float(t), "a", offset, units.BLOCK_SIZE, True, False)
    return controller.cache_hit_count


class TestBlockToPage:
    def test_first_page(self):
        # Blocks 0 and 63 share the first 64-block cache page.
        assert block_read_hits(0, 63) == 1

    def test_second_page(self):
        # Block 64 starts the second page.
        assert block_read_hits(0, 64) == 0


def lru_only(pages: int) -> StorageCache:
    """A cache whose whole capacity is an LRU of ``pages`` pages."""
    return StorageCache(
        total_bytes=pages * PAGE_BYTES, preload_bytes=0, write_delay_bytes=0
    )


def read(cache: StorageCache, item: str, page: int) -> bool:
    """One single-page read through the cache."""
    return cache.read_hit(item, page, page)


class TestLRU:
    def test_miss_then_hit(self):
        cache = lru_only(10)
        assert not read(cache, "a", 0)
        assert read(cache, "a", 0)

    def test_eviction_order_is_lru(self):
        cache = lru_only(2)
        read(cache, "a", 0)
        read(cache, "a", 1)
        read(cache, "a", 0)  # touch 0 so 1 is the LRU victim
        read(cache, "a", 2)  # evicts 1
        assert read(cache, "a", 0)
        assert not read(cache, "a", 1)

    def test_capacity_respected(self):
        cache = lru_only(3)
        for page in range(100):
            read(cache, "a", page)
        assert len(cache.lru) <= 3

    def test_zero_capacity_never_hits(self):
        cache = lru_only(0)
        assert not read(cache, "a", 0)
        assert not read(cache, "a", 0)
        assert len(cache.lru) == 0

    def test_hit_ratio(self):
        cache = lru_only(10)
        assert [read(cache, "a", 0), read(cache, "a", 0)] == [False, True]
        assert list(cache.lru._blocks) == [("a", 0)]

    def test_hit_ratio_empty(self):
        lru = LRUBlockCache(PAGE_BYTES)
        assert len(lru) == 0
        assert list(lru._blocks) == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)

    def test_range_read_touches_every_page(self):
        cache = lru_only(10)
        read(cache, "a", 1)
        # Page 1 hits, pages 0 and 2 miss: the read misses, all three
        # enter the LRU, and no page is skipped after the first miss.
        assert not cache.read_hit("a", 0, 2)
        assert list(cache.lru._blocks) == [("a", 0), ("a", 1), ("a", 2)]
        assert cache.read_hit("a", 0, 2)
        assert list(cache.lru._blocks) == [("a", 0), ("a", 1), ("a", 2)]


class TestPreloadPartition:
    def test_pin_and_query(self):
        part = PreloadPartition(100 * units.MB)
        part.pin("a", 10 * units.MB)
        assert part.is_pinned("a")
        assert part.used_bytes == 10 * units.MB
        assert part.free_bytes == 90 * units.MB

    def test_pin_is_idempotent(self):
        part = PreloadPartition(100 * units.MB)
        part.pin("a", 10 * units.MB)
        part.pin("a", 10 * units.MB)
        assert part.used_bytes == 10 * units.MB

    def test_capacity_enforced(self):
        part = PreloadPartition(10 * units.MB)
        with pytest.raises(CapacityError):
            part.pin("a", 11 * units.MB)

    def test_unpin_frees_space(self):
        part = PreloadPartition(10 * units.MB)
        part.pin("a", 10 * units.MB)
        part.unpin("a")
        part.pin("b", 10 * units.MB)
        assert part.is_pinned("b")
        assert not part.is_pinned("a")

    def test_unpin_unknown_is_noop(self):
        PreloadPartition(units.MB).unpin("ghost")

    def test_fits(self):
        part = PreloadPartition(10 * units.MB)
        part.pin("a", 10 * units.MB)
        assert part.free_bytes == 0
        with pytest.raises(CapacityError):
            PreloadPartition(10 * units.MB).pin("b", 11 * units.MB)

    def test_item_ids(self):
        part = PreloadPartition(units.GB)
        part.pin("a", 1)
        part.pin("b", 1)
        assert part.item_ids() == {"a", "b"}


class TestWriteDelayPartition:
    def make(self, capacity_mb=1, rate=0.5) -> WriteDelayPartition:
        return WriteDelayPartition(capacity_mb * units.MB, rate)

    def test_unselected_write_raises(self):
        part = self.make()
        with pytest.raises(KeyError):
            part.absorb_write("a", 0, 0)

    def test_range_absorb_counts_new_pages_once(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.absorb_write("a", 1, 1)
        assert part.absorb_write("a", 0, 3) is False
        assert part.dirty_pages == part.absorbed_pages == 4

    def test_range_absorb_reaching_threshold_flushes(self):
        part = self.make(capacity_mb=1, rate=0.5)  # 4 pages, threshold 2
        part.select("a")
        assert part.absorb_write("a", 0, 2) is True

    def test_absorb_below_threshold(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        assert part.absorb_write("a", 0, 0) is False
        assert part.dirty_pages == 1

    def test_threshold_triggers_flush(self):
        part = self.make(capacity_mb=1, rate=0.5)  # 4 pages, threshold 2
        part.select("a")
        assert part.absorb_write("a", 0, 0) is False
        assert part.absorb_write("a", 1, 1) is True

    def test_duplicate_page_not_double_counted(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.absorb_write("a", 0, 0)
        part.absorb_write("a", 0, 0)
        assert part.dirty_pages == 1

    def test_flush_all_returns_dirty_bytes_and_clears(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.select("b")
        part.absorb_write("a", 0, 0)
        part.absorb_write("a", 1, 1)
        part.absorb_write("b", 7, 7)
        assert part.flush_all() == {
            "a": 2 * PAGE_BYTES,
            "b": 1 * PAGE_BYTES,
        }
        assert part.dirty_pages == 0
        assert part.flush_count == 1

    def test_flush_item_keeps_selection(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.absorb_write("a", 0, 0)
        assert part.flush_item("a") == {"a": PAGE_BYTES}
        assert part.is_selected("a")
        assert part.dirty_pages == 0

    def test_deselect_returns_dirty_data(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.absorb_write("a", 0, 0)
        assert part.deselect("a") == {"a": PAGE_BYTES}
        assert not part.is_selected("a")

    def test_deselect_clean_item_returns_empty_plan(self):
        part = self.make()
        part.select("a")
        assert part.deselect("a") == {}

    def test_is_dirty(self):
        part = self.make(capacity_mb=100)
        part.select("a")
        part.absorb_write("a", 3, 3)
        assert part.dirty_bytes_of("a") == PAGE_BYTES
        assert part.dirty_bytes_of("b") == 0
        part.absorb_write("a", 3, 4)  # page 3 is already dirty
        assert part.dirty_bytes_of("a") == 2 * PAGE_BYTES

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            WriteDelayPartition(units.MB, 0.0)
        with pytest.raises(ValueError):
            WriteDelayPartition(units.MB, 1.5)


class TestStorageCache:
    def test_partition_sizes(self):
        cache = StorageCache(
            total_bytes=2 * units.GB,
            preload_bytes=500 * units.MB,
            write_delay_bytes=500 * units.MB,
        )
        assert cache.preload.capacity_bytes == 500 * units.MB
        assert cache.write_delay.capacity_bytes == 500 * units.MB

    def test_partition_overflow_rejected(self):
        with pytest.raises(CapacityError):
            StorageCache(
                total_bytes=units.GB,
                preload_bytes=units.GB,
                write_delay_bytes=units.GB,
            )

    def test_preloaded_items_always_hit(self):
        cache = StorageCache()
        cache.preload.pin("a", units.MB)
        assert cache.read_hit("a", 12345, 12345)

    def test_dirty_pages_hit(self):
        cache = StorageCache()
        cache.write_delay.select("a")
        cache.write_delay.absorb_write("a", 5, 5)
        assert cache.read_hit("a", 5, 5)
        assert not cache.read_hit("a", 6, 6)  # miss inserts into LRU
        assert cache.read_hit("a", 6, 6)  # now LRU hit

    def test_lru_fallback(self):
        cache = StorageCache()
        assert not cache.read_hit("b", 0, 0)
        assert cache.read_hit("b", 0, 0)
