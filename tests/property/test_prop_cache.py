"""Property tests: cache partitions never violate their invariants.

The range forms of :meth:`StorageCache.read_hit` and
:meth:`WriteDelayPartition.absorb_write` are also checked against a
per-page oracle: the page-at-a-time LRU, preload and write-delay rules
they replace, written out here.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import CapacityError
from repro.storage.cache import (
    PAGE_BYTES,
    PreloadPartition,
    StorageCache,
    WriteDelayPartition,
)

items = st.sampled_from(["a", "b", "c", "d"])
pages = st.integers(min_value=0, max_value=200)


def lru_only(pages: int) -> StorageCache:
    """A cache whose whole capacity is an LRU of ``pages`` pages."""
    return StorageCache(
        total_bytes=pages * PAGE_BYTES, preload_bytes=0, write_delay_bytes=0
    )


@given(st.lists(st.tuples(items, pages), max_size=300))
@settings(max_examples=100)
def test_lru_never_exceeds_capacity(accesses):
    cache = lru_only(5)
    for item, page in accesses:
        cache.read_hit(item, page, page)
        assert len(cache.lru) <= 5


@given(st.lists(st.tuples(items, pages), min_size=1, max_size=300))
@settings(max_examples=100)
def test_lru_most_recent_access_always_hits_next(accesses):
    cache = lru_only(5)
    for item, page in accesses:
        cache.read_hit(item, page, page)
    last_item, last_page = accesses[-1]
    assert cache.read_hit(last_item, last_page, last_page)


class PageOracle:
    """The cache's read and write-delay rules, one page at a time."""

    def __init__(
        self,
        lru_pages: int,
        threshold: int,
        preloaded: set[str],
        selected: set[str],
    ) -> None:
        self.capacity = lru_pages
        self.threshold = threshold
        self.preloaded = preloaded
        self.selected = selected
        self.blocks: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.dirty: dict[str, set[int]] = {}
        self.absorbed = 0

    def read_page(self, item: str, page: int) -> bool:
        if item in self.preloaded:
            return True
        if page in self.dirty.get(item, ()):
            return True
        key = (item, page)
        if key in self.blocks:
            self.blocks.move_to_end(key)
            return True
        if self.capacity <= 0:
            return False
        self.blocks[key] = None
        while len(self.blocks) > self.capacity:
            self.blocks.popitem(last=False)
        return False

    def read(self, item: str, first: int, last: int) -> bool:
        hit = True
        for page in range(first, last + 1):
            if not self.read_page(item, page):
                hit = False
        return hit

    def absorb_page(self, item: str, page: int) -> bool:
        if item not in self.selected:
            raise KeyError(item)
        pages = self.dirty.setdefault(item, set())
        if page not in pages:
            pages.add(page)
            self.absorbed += 1
        return sum(len(p) for p in self.dirty.values()) >= self.threshold

    def write(self, item: str, first: int, last: int) -> bool:
        flush = False
        for page in range(first, last + 1):
            if self.absorb_page(item, page):
                flush = True
        return flush


#: ``p`` is preloaded, ``w`` and ``x`` are write-delay selected, ``c``
#: is neither; reads of ``w`` and ``x`` mix dirty, cached and cold pages.
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.sampled_from(["p", "w", "x", "c"]),
        st.integers(min_value=0, max_value=12),
        # 0 gives an empty range (last = first - 1).
        st.integers(min_value=0, max_value=6),
    ),
    max_size=120,
)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=24),
    cache_ops,
)
@settings(max_examples=200)
def test_range_calls_match_per_page_oracle(lru_pages, wd_pages, ops):
    cache = StorageCache(
        total_bytes=(lru_pages + wd_pages + 1) * PAGE_BYTES,
        preload_bytes=PAGE_BYTES,
        write_delay_bytes=wd_pages * PAGE_BYTES,
    )
    cache.preload.pin("p", PAGE_BYTES)
    wd = cache.write_delay
    wd.select("w")
    wd.select("x")
    oracle = PageOracle(
        lru_pages, wd.dirty_threshold_pages, {"p"}, {"w", "x"}
    )
    for kind, item, first, length in ops:
        last = first + length - 1
        if kind == "read":
            assert cache.read_hit(item, first, last) == oracle.read(
                item, first, last
            )
        elif item in oracle.selected:
            flush = wd.absorb_write(item, first, last)
            assert flush == oracle.write(item, first, last)
            if flush:
                wd.flush_all()
                oracle.dirty.clear()
        assert list(cache.lru._blocks) == list(oracle.blocks)
        assert [(name, sorted(pages)) for name, pages in wd._dirty.items()] == [
            (name, sorted(dirty)) for name, dirty in oracle.dirty.items()
        ]
        assert wd.absorbed_pages == oracle.absorbed
        assert wd.dirty_pages == wd.recount_dirty_pages()


@given(
    st.sampled_from(["c", "p"]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=6),
)
def test_range_absorb_of_unselected_item_raises(item, first, length):
    wd = WriteDelayPartition(8 * PAGE_BYTES)
    wd.select("w")
    with pytest.raises(KeyError):
        wd.absorb_write(item, first, first + length - 1)
    assert wd.dirty_pages == wd.absorbed_pages == 0


@given(
    st.lists(
        st.tuples(items, st.integers(min_value=1, max_value=40)),
        max_size=30,
    )
)
@settings(max_examples=100)
def test_preload_partition_accounting(pins):
    part = PreloadPartition(64 * units.MB)
    pinned: dict[str, int] = {}
    for item, size_mb in pins:
        size = size_mb * units.MB
        try:
            part.pin(item, size)
        except CapacityError:
            assert part.free_bytes < size
        else:
            pinned.setdefault(item, size)
        assert part.used_bytes == sum(pinned.values())
        assert 0 <= part.used_bytes <= part.capacity_bytes


@given(st.lists(st.tuples(items, pages), max_size=400))
@settings(max_examples=100)
def test_write_delay_dirty_pages_bounded_by_threshold(writes):
    part = WriteDelayPartition(20 * PAGE_BYTES, dirty_block_rate=0.5)
    for item in ("a", "b", "c", "d"):
        part.select(item)
    for item, page in writes:
        must_flush = part.absorb_write(item, page, page)
        if must_flush:
            part.flush_all()
        # Never exceeds the flush threshold after handling.
        assert part.dirty_pages < part.dirty_threshold_pages or not must_flush


@given(st.lists(st.tuples(items, pages), max_size=200))
@settings(max_examples=100)
def test_flush_conserves_dirty_bytes(writes):
    part = WriteDelayPartition(10 * units.GB, dirty_block_rate=1.0)
    for item in ("a", "b", "c", "d"):
        part.select(item)
    unique = {(item, page) for item, page in writes}
    for item, page in writes:
        part.absorb_write(item, page, page)
    assert sum(part.flush_all().values()) == len(unique) * PAGE_BYTES
    assert part.dirty_pages == 0
