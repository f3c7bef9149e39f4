"""Battery-backed storage cache with preload and write-delay partitions.

The paper's enterprise storage has a 2 GB non-volatile cache (Table II)
split three ways by the proposed method:

* a **preload partition** (500 MB) pinning whole P1 data items so reads
  never reach the disk enclosures (§II-E.2, §IV-F);
* a **write-delay partition** (500 MB) buffering dirty blocks of P2 data
  items, flushed in bulk when the *dirty block rate* (50 %) is reached
  (§IV-E, §V-B);
* the remainder as an ordinary block-grained LRU serving everything else.

Addresses are logical: ``(data item id, block index)``.  The cache is a
pure data structure — the :class:`~repro.storage.controller.StorageController`
decides what physical I/O each hit/miss/flush implies.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import units
from repro.capture import SlotValue, Snapshottable
from repro.errors import CapacityError, ValidationError
from repro.units import Bytes

#: Cache lines are tracked at page granularity (64 blocks = 256 KiB) —
#: enterprise controllers manage cache in large segments, and per-4-KiB
#: bookkeeping would dominate simulation time for megabyte-sized I/O.
PAGE_BLOCKS = 64
PAGE_BYTES = PAGE_BLOCKS * units.BLOCK_SIZE


class LRUBlockCache(SlotValue):
    """Page-grained LRU over ``(item_id, page_index)`` keys.

    :meth:`StorageCache.read_hit` walks it: a hit moves the page to the
    most-recent end, a miss inserts it and evicts from the oldest end.
    Eviction is silent (clean read cache — dirty data lives in the
    write-delay partition, never here).  Instances compare equal with
    equal capacity and pages, in the same recency order.
    """

    __slots__ = ("capacity_pages", "_blocks")

    def __init__(self, capacity_bytes: Bytes) -> None:
        if capacity_bytes < 0:
            raise ValidationError("capacity must be non-negative")
        self.capacity_pages = capacity_bytes // PAGE_BYTES
        self._blocks: OrderedDict[tuple[str, int], None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._blocks


class PreloadPartition(SlotValue):
    """Cache region pinning whole data items (the preload function).

    Items are pinned until explicitly unpinned at the next management
    point (paper §V-C keeps already-preloaded items).
    """

    __slots__ = ("capacity_bytes", "_items")

    def __init__(self, capacity_bytes: Bytes) -> None:
        if capacity_bytes < 0:
            raise ValidationError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._items: dict[str, int] = {}

    @property
    def used_bytes(self) -> Bytes:
        """Bytes currently pinned in the cache."""
        return sum(self._items.values())

    @property
    def free_bytes(self) -> Bytes:
        """Remaining cache capacity in bytes."""
        return self.capacity_bytes - self.used_bytes

    def item_ids(self) -> set[str]:
        """Ids of all pinned items."""
        return set(self._items)

    def pin(self, item_id: str, size_bytes: Bytes) -> None:
        """Pin one data item; raises :class:`CapacityError` if it cannot fit."""
        if size_bytes < 0:
            raise ValidationError("size must be non-negative")
        if item_id in self._items:
            return
        if size_bytes > self.free_bytes:
            raise CapacityError(
                f"preload partition full: need {size_bytes}, "
                f"free {self.free_bytes}"
            )
        self._items[item_id] = size_bytes

    def unpin(self, item_id: str) -> None:
        """Remove the item from the cache, if present."""
        self._items.pop(item_id, None)

    def is_pinned(self, item_id: str) -> bool:
        """Whether the item is currently pinned."""
        return item_id in self._items


class WriteDelayPartition(SlotValue):
    """Cache region buffering dirty blocks of write-delayed data items.

    Only items explicitly selected by the policy (``select``) are
    buffered.  When the number of dirty blocks reaches
    ``dirty_block_rate × capacity`` the partition asks for a bulk flush
    (paper §V-B: "flushes these updated blocks into disk enclosures at one
    time").
    """

    __slots__ = (
        "capacity_bytes",
        "dirty_block_rate",
        "_selected",
        "_dirty",
        "dirty_pages",
        "flush_count",
        "absorbed_pages",
        "flushed_pages",
    )

    def __init__(self, capacity_bytes: Bytes, dirty_block_rate: float = 0.5) -> None:
        if capacity_bytes < 0:
            raise ValidationError("capacity must be non-negative")
        if not 0 < dirty_block_rate <= 1:
            raise ValidationError("dirty_block_rate must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.dirty_block_rate = dirty_block_rate
        self._selected: set[str] = set()
        self._dirty: dict[str, set[int]] = {}
        #: Number of dirty pages currently buffered: the pages across
        #: every set of ``_dirty``, kept by each mutator so the per-I/O
        #: dirty-rate test is O(1).  The invariant auditor recounts the
        #: sets and checks this against them.
        self.dirty_pages = 0
        self.flush_count = 0
        #: Acknowledged-write conservation books: every page ever absorbed
        #: (acknowledged to the application) is either still dirty here or
        #: has been handed to a flush.  The invariant auditor asserts
        #: ``absorbed_pages == flushed_pages + dirty_pages`` at all times,
        #: which is what "no acknowledged write is ever lost" means in
        #: page units.
        self.absorbed_pages = 0
        self.flushed_pages = 0

    @property
    def capacity_pages(self) -> int:
        """Cache capacity expressed in whole pages."""
        return self.capacity_bytes // PAGE_BYTES

    @property
    def dirty_threshold_pages(self) -> int:
        """Dirty-page count that triggers a bulk flush."""
        return int(self.capacity_pages * self.dirty_block_rate)

    def recount_dirty_pages(self) -> int:
        """Dirty pages counted from the page sets (the audit's oracle)."""
        return sum(len(pages) for pages in self._dirty.values())

    def selected_items(self) -> set[str]:
        """Ids of items selected for write-delay buffering."""
        return set(self._selected)

    def dirty_items(self) -> list[str]:
        """Ids of items holding dirty pages, in first-dirtied order."""
        return [item for item, pages in self._dirty.items() if pages]

    def is_selected(self, item_id: str) -> bool:
        """Whether the item is selected for write-delay buffering."""
        return item_id in self._selected

    def select(self, item_id: str) -> None:
        """Mark a data item for write delay."""
        self._selected.add(item_id)

    def deselect(self, item_id: str) -> dict[str, Bytes]:
        """Stop delaying an item; its dirty blocks must be written out.

        Returns what the flush must write, as ``{item: dirty bytes}``.
        Paper §V-B: "write updated data items onto disk enclosures when
        the write-delay-applied data items are changed."
        """
        self._selected.discard(item_id)
        pages = self._dirty.pop(item_id, set())
        if not pages:
            return {}
        self.flushed_pages += len(pages)
        self.dirty_pages -= len(pages)
        return {item_id: len(pages) * PAGE_BYTES}

    def absorb_write(self, item_id: str, first_page: int, last_page: int) -> bool:
        """Buffer the dirty pages ``first_page..last_page`` (inclusive).

        Returns True if the caller must now bulk-flush.  Raises for
        unselected items — the caller routes those writes to the
        enclosure instead.  An empty range buffers nothing and asks for
        no flush.
        """
        if last_page < first_page:
            return False
        if item_id not in self._selected:
            raise KeyError(f"item {item_id!r} is not write-delay selected")
        pages = self._dirty.get(item_id)
        if pages is None:
            pages = self._dirty[item_id] = set()
        before = len(pages)
        pages.update(range(first_page, last_page + 1))
        added = len(pages) - before
        self.absorbed_pages += added
        self.dirty_pages += added
        return self.dirty_pages >= self.dirty_threshold_pages

    def dirty_bytes_of(self, item_id: str) -> Bytes:
        """Bytes of dirty data buffered for one item (read-only peek).

        Lets the action executor cost a flush before it applies it.
        """
        return len(self._dirty.get(item_id, ())) * PAGE_BYTES

    def flush_item(self, item_id: str) -> dict[str, Bytes]:
        """Clear one item's dirty pages (it stays selected) and return
        their ``{item: dirty bytes}``."""
        pages = self._dirty.pop(item_id, set())
        if not pages:
            return {}
        self.flushed_pages += len(pages)
        self.dirty_pages -= len(pages)
        return {item_id: len(pages) * PAGE_BYTES}

    def flush_all(self) -> dict[str, Bytes]:
        """Clear the partition and return every dirty item's bytes."""
        plan = {
            item_id: len(pages) * PAGE_BYTES
            for item_id, pages in self._dirty.items()
            if pages
        }
        self.flushed_pages += self.dirty_pages
        self._dirty.clear()
        self.dirty_pages = 0
        self.flush_count += 1
        return plan

    def __eq__(self, other: object) -> bool:
        """Equal selection, dirty pages (in first-dirtied order) and books."""
        return (
            isinstance(other, WriteDelayPartition)
            and super().__eq__(other)
            and list(other._dirty) == list(self._dirty)
        )


class StorageCache(Snapshottable):
    """The full cache: LRU + preload + write-delay partitions.

    Thin façade so the controller manipulates one object; partition
    boundaries are fixed at construction (paper Table II: 500 MB each for
    preload and write delay out of 2 GB).  The partitions are its
    snapshot state, captured as values.
    """

    __slots__ = ("total_bytes", "lru", "preload", "write_delay")

    def __init__(
        self,
        total_bytes: int = 2 * units.GB,
        preload_bytes: int = 500 * units.MB,
        write_delay_bytes: int = 500 * units.MB,
        dirty_block_rate: float = 0.5,
    ) -> None:
        if preload_bytes + write_delay_bytes > total_bytes:
            raise CapacityError(
                "preload + write-delay partitions exceed total cache size"
            )
        self.total_bytes = total_bytes
        self.lru = LRUBlockCache(total_bytes - preload_bytes - write_delay_bytes)
        self.preload = PreloadPartition(preload_bytes)
        self.write_delay = WriteDelayPartition(write_delay_bytes, dirty_block_rate)

    def read_hit(self, item_id: str, first_page: int, last_page: int) -> bool:
        """Whether a read of pages ``first_page..last_page`` is a cache hit.

        Every page is evaluated (no short-circuit), so each one the read
        touches enters the LRU; the read hits only if all of them already
        were cached.  Preloaded items always hit; write-delayed dirty
        pages hit (the newest data lives in cache) without touching the
        LRU; every other page is an LRU hit (moved to the most-recent
        end) or a miss (inserted, evicting from the oldest end).
        """
        # The partition checks and the LRU walk are inlined (same
        # module): this façade is called once per read the replay pump
        # serves.
        if item_id in self.preload._items:
            return True
        dirty = self.write_delay._dirty.get(item_id, ())
        lru = self.lru
        blocks = lru._blocks
        capacity = lru.capacity_pages
        if first_page == last_page:
            # Most reads touch one page: the loop body without the loop.
            if first_page in dirty:
                return True
            key = (item_id, first_page)
            if key in blocks:
                blocks.move_to_end(key)
                return True
            if capacity > 0:
                blocks[key] = None
                while len(blocks) > capacity:
                    blocks.popitem(last=False)
            return False
        missed = False
        for page in range(first_page, last_page + 1):
            if page in dirty:
                continue
            key = (item_id, page)
            if key in blocks:
                blocks.move_to_end(key)
                continue
            missed = True
            if capacity > 0:
                blocks[key] = None
                while len(blocks) > capacity:
                    blocks.popitem(last=False)
        return not missed
