"""Block-virtualization layer: volumes, data items, physical placement.

The paper's storage stack (Fig 2) interposes a block-virtualization layer
between applications and disk enclosures.  Applications address **data
items** (tables, indexes, files) inside **volumes**; the virtualization
layer maps each volume to a disk enclosure and each data item to a block
extent.  A data item lives wholly on one enclosure — the paper splits
anything spanning enclosures into separate items (§II-C.1) — so the
mapping here is simply *item → volume → enclosure* plus a base block
address per item.

The layer also owns capacity accounting (used/free bytes per enclosure),
which the placement algorithms (paper Algorithms 2 and 3) consult, and it
implements :meth:`move_item`, the primitive behind data migration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.capture import Snapshottable
from repro.errors import CapacityError, MappingError, ValidationError
from repro.storage.enclosure import DiskEnclosure
from repro.storage.tiers import (
    HDD_COST_PER_BYTE,
    StorageTier,
    TierKind,
    TierLedger,
)


@dataclass(frozen=True)
class Volume:
    """A logical volume carved out of one disk enclosure."""

    name: str
    enclosure: str


@dataclass(frozen=True)
class PhysicalExtent:
    """Physical location of a data item: enclosure + block extent."""

    enclosure: str
    base_block: int
    blocks: int

    @property
    def size_bytes(self) -> int:
        """Volume size in bytes."""
        return units.blocks_to_bytes(self.blocks)


class BlockVirtualization(Snapshottable):
    """Mapping between data items, volumes, enclosures, and tiers.

    Placement is ``(tier, device)``: every enclosure belongs to exactly
    one :class:`~repro.storage.tiers.StorageTier`.  Legacy callers pass
    only the enclosure list and get one implicit HDD tier holding every
    device — their behaviour (and every float in a replay) is unchanged,
    because the per-tier :class:`~repro.storage.tiers.TierLedger` books
    are maintained with integer arithmetic only.

    Its snapshot state is the volumes, item placement, replicas,
    capacity books and the tier ledger, all in insertion order
    (``item_ids()``/``items_on()`` report it).  The enclosures, the
    tier structure and the derived route cache are rebuilt.
    """

    __slots__ = (
        "_enclosures",
        "_tiers",
        "_device_tier",
        "tier_ledger",
        "_volumes",
        "_item_volume",
        "_item_size",
        "_item_base",
        "_used_bytes",
        "_next_block",
        "_replicas",
        "_replica_bytes",
        "_route_cache",
    )

    _REBUILT = frozenset(
        {
            "_enclosures",
            "_tiers",
            "_device_tier",
            "_route_cache",
        }
    )

    def __init__(
        self,
        enclosures: list[DiskEnclosure],
        tiers: tuple[StorageTier, ...] | None = None,
    ) -> None:
        if not enclosures:
            raise ValidationError("at least one enclosure is required")
        names = [enc.name for enc in enclosures]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate enclosure names: {names}")
        self._enclosures: dict[str, DiskEnclosure] = {
            enc.name: enc for enc in enclosures
        }
        if tiers is None:
            tiers = (
                StorageTier(
                    name="hdd",
                    kind=TierKind.HDD,
                    devices=tuple(names),
                    cost_per_byte=HDD_COST_PER_BYTE,
                ),
            )
        self._tiers: dict[str, StorageTier] = {}
        self._device_tier: dict[str, str] = {}
        self.tier_ledger = TierLedger()
        for tier in tiers:
            if tier.name in self._tiers:
                raise ValidationError(f"duplicate tier name {tier.name!r}")
            for device in tier.devices:
                if device not in self._enclosures:
                    raise ValidationError(
                        f"tier {tier.name!r} lists unknown device {device!r}"
                    )
                if device in self._device_tier:
                    raise ValidationError(
                        f"device {device!r} belongs to two tiers: "
                        f"{self._device_tier[device]!r} and {tier.name!r}"
                    )
                self._device_tier[device] = tier.name
            self._tiers[tier.name] = tier
            self.tier_ledger.register_tier(tier.name)
        untiered = sorted(set(names) - set(self._device_tier))
        if untiered:
            raise ValidationError(
                f"enclosures belong to no tier: {untiered}"
            )
        self._volumes: dict[str, Volume] = {}
        self._item_volume: dict[str, str] = {}
        self._item_size: dict[str, int] = {}
        self._item_base: dict[str, int] = {}
        self._used_bytes: dict[str, int] = {name: 0 for name in names}
        self._next_block: dict[str, int] = {name: 0 for name in names}
        #: Replica copies (item → {enclosure → size bytes}): redundancy
        #: registered by :class:`~repro.actions.records.ReplicateItem`.
        #: Replicas occupy capacity and tier books but never serve I/O —
        #: routing always resolves to the primary copy.
        self._replicas: dict[str, dict[str, int]] = {}
        self._replica_bytes: dict[str, int] = {name: 0 for name in names}
        # Hot-path routing cache: item id → (enclosure, name, base block,
        # size bytes).  One dict probe replaces the three-map chain of
        # :meth:`resolve` on every served I/O; entries are dropped the
        # moment the mapping they summarize changes.
        self._route_cache: dict[str, tuple[DiskEnclosure, str, int]] = {}

    # ------------------------------------------------------------------
    # enclosures and volumes
    # ------------------------------------------------------------------
    @property
    def enclosure_names(self) -> list[str]:
        """Names of all registered enclosures."""
        return list(self._enclosures)

    def enclosure(self, name: str) -> DiskEnclosure:
        """Look up an enclosure by name."""
        try:
            return self._enclosures[name]
        except KeyError:
            raise MappingError(f"unknown enclosure {name!r}") from None

    def enclosures(self) -> list[DiskEnclosure]:
        """All registered enclosures, in registration order."""
        return list(self._enclosures.values())

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------
    @property
    def tier_names(self) -> list[str]:
        """Names of all registered tiers, in declaration order."""
        return list(self._tiers)

    def tier(self, name: str) -> StorageTier:
        """Look up a tier by name."""
        try:
            return self._tiers[name]
        except KeyError:
            raise MappingError(f"unknown tier {name!r}") from None

    def tiers(self) -> list[StorageTier]:
        """All registered tiers, in declaration order."""
        return list(self._tiers.values())

    def tier_of_device(self, device: str) -> StorageTier:
        """Tier owning one enclosure/device."""
        try:
            return self._tiers[self._device_tier[device]]
        except KeyError:
            raise MappingError(f"unknown enclosure {device!r}") from None

    def tier_of_item(self, item_id: str) -> StorageTier:
        """Tier holding an item's primary copy (via its enclosure)."""
        return self.tier_of_device(self.enclosure_of(item_id).name)

    def devices_in_tier(self, tier_name: str) -> tuple[str, ...]:
        """Device names of one tier, in declaration order."""
        return self.tier(tier_name).devices

    def create_volume(self, name: str, enclosure: str) -> Volume:
        """Create a volume on an enclosure (paper Table I creates 36)."""
        if name in self._volumes:
            raise MappingError(f"volume {name!r} already exists")
        if enclosure not in self._enclosures:
            raise MappingError(f"unknown enclosure {enclosure!r}")
        volume = Volume(name, enclosure)
        self._volumes[name] = volume
        return volume

    def volume(self, name: str) -> Volume:
        """Look up a volume by name."""
        try:
            return self._volumes[name]
        except KeyError:
            raise MappingError(f"unknown volume {name!r}") from None

    # ------------------------------------------------------------------
    # data items
    # ------------------------------------------------------------------
    def add_item(self, item_id: str, size_bytes: int, volume: str) -> None:
        """Place a new data item on a volume.

        Raises :class:`CapacityError` if the backing enclosure would
        overflow, :class:`MappingError` for unknown volumes or duplicates.
        """
        if item_id in self._item_volume:
            raise MappingError(f"data item {item_id!r} already placed")
        if size_bytes <= 0:
            raise ValidationError(f"item size must be positive: {size_bytes}")
        vol = self.volume(volume)
        enc = self.enclosure(vol.enclosure)
        occupied = self._used_bytes[enc.name] + self._replica_bytes[enc.name]
        if enc.capacity_bytes and occupied + size_bytes > enc.capacity_bytes:
            raise CapacityError(
                f"enclosure {enc.name!r} cannot hold item {item_id!r}: "
                f"used {occupied} + {size_bytes} > "
                f"{enc.capacity_bytes}"
            )
        self._item_volume[item_id] = volume
        self._item_size[item_id] = size_bytes
        self._item_base[item_id] = self._next_block[enc.name]
        self._route_cache.pop(item_id, None)
        blocks = units.bytes_to_blocks(size_bytes)
        self._next_block[enc.name] += blocks
        self._used_bytes[enc.name] += size_bytes
        self.tier_ledger.record_in(self._device_tier[enc.name], size_bytes)

    def remove_item(self, item_id: str) -> None:
        """Delete an item and release its space on the enclosure."""
        volume = self._item_volume.pop(item_id, None)
        if volume is None:
            raise MappingError(f"unknown data item {item_id!r}")
        enclosure = self._volumes[volume].enclosure
        size = self._item_size.pop(item_id)
        self._used_bytes[enclosure] -= size
        self._item_base.pop(item_id)
        self._route_cache.pop(item_id, None)
        self.tier_ledger.record_out(self._device_tier[enclosure], size)
        for replica_enclosure, replica_size in self._replicas.pop(
            item_id, {}
        ).items():
            self._replica_bytes[replica_enclosure] -= replica_size
            self.tier_ledger.record_out(
                self._device_tier[replica_enclosure], replica_size
            )

    def has_item(self, item_id: str) -> bool:
        """Whether the item is mapped to a volume."""
        return item_id in self._item_volume

    def item_ids(self) -> list[str]:
        """Ids of all mapped items."""
        return list(self._item_volume)

    def item_size(self, item_id: str) -> int:
        """Size of the item in bytes."""
        try:
            return self._item_size[item_id]
        except KeyError:
            raise MappingError(f"unknown data item {item_id!r}") from None

    def volume_of(self, item_id: str) -> Volume:
        """Volume holding the item."""
        try:
            return self._volumes[self._item_volume[item_id]]
        except KeyError:
            raise MappingError(f"unknown data item {item_id!r}") from None

    def enclosure_of(self, item_id: str) -> DiskEnclosure:
        """Enclosure holding the item (via its volume)."""
        return self.enclosure(self.volume_of(item_id).enclosure)

    def extent_of(self, item_id: str) -> PhysicalExtent:
        """Physical extent of a data item (for physical trace records)."""
        enc = self.enclosure_of(item_id)
        return PhysicalExtent(
            enclosure=enc.name,
            base_block=self._item_base[item_id],
            blocks=units.bytes_to_blocks(self._item_size[item_id]),
        )

    def route(self, item_id: str) -> tuple[DiskEnclosure, str, int]:
        """Resolve an item to ``(enclosure, name, size bytes)``.

        The hot-path companion of :meth:`resolve`/:meth:`enclosure_of`:
        the batched replay pump calls this once per I/O, so the answer is
        cached until :meth:`add_item`/:meth:`remove_item`/:meth:`move_item`
        changes the mapping.  Raises :class:`MappingError` for unplaced
        items, exactly as the uncached accessors do.
        """
        route = self._route_cache.get(item_id)
        if route is None:
            enclosure = self.enclosure_of(item_id)
            route = (enclosure, enclosure.name, self._item_size[item_id])
            self._route_cache[item_id] = route
        return route

    def resolve(self, item_id: str, offset: int) -> tuple[str, int]:
        """Map (item, byte offset) → (enclosure name, block address)."""
        size = self.item_size(item_id)
        if offset < 0 or offset >= size:
            raise MappingError(
                f"offset {offset} outside item {item_id!r} of size {size}"
            )
        extent = self.extent_of(item_id)
        return extent.enclosure, extent.base_block + offset // units.BLOCK_SIZE

    def items_on(self, enclosure: str) -> list[str]:
        """Data items currently placed on one enclosure."""
        if enclosure not in self._enclosures:
            raise MappingError(f"unknown enclosure {enclosure!r}")
        return [
            item
            for item, volume in self._item_volume.items()
            if self._volumes[volume].enclosure == enclosure
        ]

    def used_bytes(self, enclosure: str) -> int:
        """Bytes of item data stored on the enclosure."""
        try:
            return self._used_bytes[enclosure]
        except KeyError:
            raise MappingError(f"unknown enclosure {enclosure!r}") from None

    def recount_used_bytes(self) -> dict[str, int]:
        """Bytes of item data per enclosure, summed from the placement.

        Sums item sizes per volume over the item → volume mapping, then
        per enclosure, and never reads the used-byte counters
        :meth:`used_bytes` returns, so an audit can check them against it.
        """
        sizes = self._item_size
        per_volume = dict.fromkeys(self._volumes, 0)
        for item_id, volume in self._item_volume.items():
            per_volume[volume] += sizes[item_id]
        recounted = dict.fromkeys(self._enclosures, 0)
        for volume, total in per_volume.items():
            recounted[self._volumes[volume].enclosure] += total
        return recounted

    def free_bytes(self, enclosure: str) -> int:
        """Remaining capacity of the enclosure in bytes.

        Replica copies occupy capacity too, so free space is capacity
        minus primary bytes minus replica bytes.
        """
        enc = self.enclosure(enclosure)
        if not enc.capacity_bytes:
            raise MappingError(
                f"enclosure {enclosure!r} has no declared capacity"
            )
        return (
            enc.capacity_bytes
            - self._used_bytes[enclosure]
            - self._replica_bytes[enclosure]
        )

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------
    def add_replica(self, item_id: str, enclosure: str) -> int:
        """Register a replica copy of an item on another enclosure.

        Returns the replica's size in bytes.  The replica occupies
        capacity and enters its tier's ledger books, but routing keeps
        resolving to the primary copy — replicas are redundancy, not
        load-balancing.  Raises :class:`MappingError` for unknown items
        or enclosures, a replica on the primary's own enclosure, or a
        duplicate replica; :class:`CapacityError` when the target is
        full.
        """
        size = self.item_size(item_id)
        if enclosure not in self._enclosures:
            raise MappingError(f"unknown enclosure {enclosure!r}")
        primary = self.enclosure_of(item_id).name
        if enclosure == primary:
            raise MappingError(
                f"item {item_id!r} already has its primary copy on "
                f"{enclosure!r}"
            )
        copies = self._replicas.setdefault(item_id, {})
        if enclosure in copies:
            raise MappingError(
                f"item {item_id!r} already has a replica on {enclosure!r}"
            )
        enc = self._enclosures[enclosure]
        occupied = self._used_bytes[enclosure] + self._replica_bytes[enclosure]
        if enc.capacity_bytes and occupied + size > enc.capacity_bytes:
            raise CapacityError(
                f"enclosure {enclosure!r} cannot hold a replica of "
                f"{item_id!r}: used {occupied} + {size} > {enc.capacity_bytes}"
            )
        copies[enclosure] = size
        self._replica_bytes[enclosure] += size
        self.tier_ledger.record_in(self._device_tier[enclosure], size)
        return size

    def remove_replica(self, item_id: str, enclosure: str) -> int:
        """Drop a replica copy; returns the bytes released."""
        copies = self._replicas.get(item_id)
        if not copies or enclosure not in copies:
            raise MappingError(
                f"item {item_id!r} has no replica on {enclosure!r}"
            )
        size = copies.pop(enclosure)
        if not copies:
            self._replicas.pop(item_id)
        self._replica_bytes[enclosure] -= size
        self.tier_ledger.record_out(self._device_tier[enclosure], size)
        return size

    def replicas_of(self, item_id: str) -> tuple[str, ...]:
        """Enclosures holding replica copies of an item (sorted)."""
        return tuple(sorted(self._replicas.get(item_id, ())))

    def replica_bytes_on(self, enclosure: str) -> int:
        """Bytes of replica data stored on the enclosure."""
        try:
            return self._replica_bytes[enclosure]
        except KeyError:
            raise MappingError(f"unknown enclosure {enclosure!r}") from None

    def move_item(self, item_id: str, target_enclosure: str) -> tuple[str, str]:
        """Re-map a data item to (a volume on) another enclosure.

        Returns ``(source, target)`` enclosure names.  The caller — the
        controller's migration — is responsible for the physical copy I/O; this
        method only updates the mapping and capacity accounting.  A
        per-enclosure migration volume is created on demand.
        """
        src = self.enclosure_of(item_id).name
        if target_enclosure not in self._enclosures:
            raise MappingError(f"unknown enclosure {target_enclosure!r}")
        if src == target_enclosure:
            return src, src
        size = self._item_size[item_id]
        target = self.enclosure(target_enclosure)
        occupied = (
            self._used_bytes[target_enclosure]
            + self._replica_bytes[target_enclosure]
        )
        if target.capacity_bytes and occupied + size > target.capacity_bytes:
            raise CapacityError(
                f"cannot move {item_id!r} to {target_enclosure!r}: "
                f"used {occupied} + {size} > "
                f"{target.capacity_bytes}"
            )
        volume_name = f"_migration/{target_enclosure}"
        if volume_name not in self._volumes:
            self.create_volume(volume_name, target_enclosure)
        self._used_bytes[src] -= size
        self._used_bytes[target_enclosure] += size
        self._item_volume[item_id] = volume_name
        self._item_base[item_id] = self._next_block[target_enclosure]
        self._next_block[target_enclosure] += units.bytes_to_blocks(size)
        self._route_cache.pop(item_id, None)
        source_tier = self._device_tier[src]
        target_tier = self._device_tier[target_enclosure]
        if source_tier != target_tier:
            self.tier_ledger.record_out(source_tier, size)
            self.tier_ledger.record_in(target_tier, size)
        return src, target_enclosure
