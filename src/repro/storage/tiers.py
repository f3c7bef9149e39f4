"""Typed storage tiers: FLASH / HDD / ARCHIVE.

The paper's testbed is a single-technology array — every enclosure is the
same 15-HDD RAID-6 group, and energy is saved by spinning enclosures
down.  Production storage saves energy by *moving data across tiers* as
well: a small always-on flash tier absorbs the hot set, powered HDD
enclosures serve the warm set, and a cheap high-latency archive tier
holds frozen data at a fraction of the wattage.

This module introduces the tier vocabulary on top of the existing
:class:`~repro.storage.enclosure.DiskEnclosure` machinery:

* :class:`TierKind` — the technology class, ordered fastest→coldest.
* :class:`StorageTier` — a named group of devices with a per-byte
  capacity cost; the tier's power model, service-time model, and
  capacity live on its member devices (a ``DiskEnclosure`` per device).
* :class:`FlashTier` / :class:`ArchiveTier` — device implementations:
  the flash device is always-on (no platters to spin down), the archive
  device is slow, cheap, and aggressively power-managed.  A plain
  :class:`DiskEnclosure` is the HDD-tier device.
* :class:`TierLedger` — exact integer byte books per tier
  (``bytes_in`` / ``bytes_out``), maintained by the virtualization
  layer so the invariant auditor can prove, per tier, that
  ``bytes_in − bytes_out`` equals the bytes currently placed there.

Legacy single-HDD-tier configurations never construct any of this; the
virtualization layer synthesizes one implicit HDD tier and all tier
bookkeeping stays integer-only, so legacy replays are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import SSD_POWER_MODEL, PowerModel
from repro.units import Bytes, Seconds

__all__ = [
    "ARCHIVE_COST_PER_BYTE",
    "ARCHIVE_POWER_MODEL",
    "ArchiveTier",
    "FLASH_COST_PER_BYTE",
    "FlashTier",
    "HDD_COST_PER_BYTE",
    "StorageTier",
    "TierKind",
    "TierLedger",
]

#: Relative capacity cost of one byte on each technology (arbitrary cost
#: units; only the ratios matter for the frontier).  Flash is ~8× HDD,
#: archive ~1/4 of HDD — coarse 2012-era street-price ratios.
FLASH_COST_PER_BYTE = 8.0e-9
HDD_COST_PER_BYTE = 1.0e-9
ARCHIVE_COST_PER_BYTE = 2.5e-10


class TierKind(enum.Enum):
    """Technology class of a storage tier, ordered fastest → coldest."""

    FLASH = "flash"
    HDD = "hdd"
    ARCHIVE = "archive"

    @property
    def rank(self) -> int:
        """Position in the performance order (0 = fastest).

        Promotions move an item to a strictly lower rank, demotions to a
        strictly higher one; the executor validates direction with this.
        """
        return _TIER_RANKS[self]


#: Performance order of the tier kinds (0 = fastest, serves the hot set).
_TIER_RANKS: dict[TierKind, int] = {
    TierKind.FLASH: 0,
    TierKind.HDD: 1,
    TierKind.ARCHIVE: 2,
}


#: Power model of one archive-tier device: a dense, slow shelf (think
#: massive-array-of-idle-disks) that is cheap to keep off and expensive
#: to wake — long spin-up, modest active draw.  Break-even ≈ 37 s.
ARCHIVE_POWER_MODEL = PowerModel(
    active_watts=160.0,
    idle_watts=120.0,
    off_watts=6.0,
    spin_up_watts=640.0,
    spin_up_seconds=6.0,
    spin_down_watts=90.0,
    spin_down_seconds=3.0,
)


@dataclass(frozen=True)
class StorageTier:
    """One typed tier: a named, ordered group of storage devices.

    The tier is *descriptive* wiring — the physical behaviour (power
    model, IOPS capacities, capacity bytes) lives on the member device
    objects registered with the virtualization layer under the names in
    :attr:`devices`.  ``cost_per_byte`` is the relative capacity cost
    used for the energy-vs-latency-vs-cost frontier (flash ≫ HDD ≫
    archive).
    """

    name: str
    kind: TierKind
    devices: tuple[str, ...]
    cost_per_byte: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tier name must be non-empty")
        if not self.devices:
            raise ValidationError(f"tier {self.name!r} has no devices")
        if len(set(self.devices)) != len(self.devices):
            raise ValidationError(
                f"tier {self.name!r} lists duplicate devices: {self.devices}"
            )
        if self.cost_per_byte <= 0:
            raise ValidationError(
                f"tier {self.name!r} cost_per_byte must be positive, "
                f"got {self.cost_per_byte}"
            )


class FlashTier(DiskEnclosure):
    """A flash (SSD) device: always-on, low-latency, expensive per byte.

    Reuses the enclosure state machine with the calibrated
    :data:`~repro.storage.power.SSD_POWER_MODEL`, but ignores power-off
    enablement entirely: there are no platters to spin down, so the
    device never leaves ACTIVE/IDLE and its spin-up wait can never be
    charged to an I/O.
    """

    __slots__ = ()

    #: Default service capacities of one flash device (I/Os per second).
    DEFAULT_IOPS_RANDOM = 20000.0
    DEFAULT_IOPS_SEQUENTIAL = 40000.0

    def __init__(
        self,
        name: str,
        capacity_bytes: Bytes = 0,
        iops_random: float = DEFAULT_IOPS_RANDOM,
        iops_sequential: float = DEFAULT_IOPS_SEQUENTIAL,
        power_model: PowerModel | None = None,
    ) -> None:
        super().__init__(
            name,
            power_model=power_model or SSD_POWER_MODEL,
            iops_random=iops_random,
            iops_sequential=iops_sequential,
            capacity_bytes=capacity_bytes,
            spin_down_timeout=0.0,
        )

    def enable_power_off(self, now: Seconds) -> None:
        """Ignore power-off enablement: a flash device is always on.

        The timeline is still settled so the call remains a legal
        synchronization point for the executor.
        """
        self.settle(now)


class ArchiveTier(DiskEnclosure):
    """An archive device: high-latency, dense, cheap, aggressively idle.

    Modelled as a slow enclosure with the
    :data:`ARCHIVE_POWER_MODEL`; policies are expected to keep its
    power-off function enabled, so it spends nearly all of its life OFF
    and every access pays the long spin-up.
    """

    __slots__ = ()

    #: Default service capacities of one archive device (I/Os per second).
    DEFAULT_IOPS_RANDOM = 120.0
    DEFAULT_IOPS_SEQUENTIAL = 800.0
    #: Default idle window before the archive shelf powers itself down.
    DEFAULT_SPIN_DOWN_TIMEOUT = 40.0

    def __init__(
        self,
        name: str,
        capacity_bytes: Bytes = 0,
        iops_random: float = DEFAULT_IOPS_RANDOM,
        iops_sequential: float = DEFAULT_IOPS_SEQUENTIAL,
        power_model: PowerModel | None = None,
        spin_down_timeout: Seconds = DEFAULT_SPIN_DOWN_TIMEOUT,
    ) -> None:
        super().__init__(
            name,
            power_model=power_model or ARCHIVE_POWER_MODEL,
            iops_random=iops_random,
            iops_sequential=iops_sequential,
            capacity_bytes=capacity_bytes,
            spin_down_timeout=spin_down_timeout,
        )


@dataclass
class TierLedger:
    """Exact per-tier byte books: bytes that entered and left each tier.

    Maintained by :class:`~repro.storage.virtualization.BlockVirtualization`
    on every placement mutation (initial placement, migration, replica
    creation/removal).  All arithmetic is integer, so the conservation
    law the auditor checks —

    ``bytes_in[tier] − bytes_out[tier] == bytes currently placed on tier``

    — holds *exactly*, and maintaining the ledger during a legacy
    single-tier replay cannot perturb any float in the simulation.
    """

    bytes_in: dict[str, int] = field(default_factory=dict)
    bytes_out: dict[str, int] = field(default_factory=dict)

    def register_tier(self, tier_name: str) -> None:
        """Open (zeroed) books for a tier."""
        self.bytes_in.setdefault(tier_name, 0)
        self.bytes_out.setdefault(tier_name, 0)

    def record_in(self, tier_name: str, size_bytes: int) -> None:
        """Account ``size_bytes`` entering the tier."""
        if size_bytes < 0:
            raise ValidationError("size_bytes must be non-negative")
        self.bytes_in[tier_name] += size_bytes

    def record_out(self, tier_name: str, size_bytes: int) -> None:
        """Account ``size_bytes`` leaving the tier."""
        if size_bytes < 0:
            raise ValidationError("size_bytes must be non-negative")
        self.bytes_out[tier_name] += size_bytes

    def net_bytes(self, tier_name: str) -> int:
        """Bytes the ledger says the tier currently holds (in − out)."""
        return self.bytes_in[tier_name] - self.bytes_out[tier_name]
