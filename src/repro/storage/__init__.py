"""Storage substrate: the simulated enterprise storage unit.

This subpackage stands in for the paper's Hitachi AMS 2500 testbed and
power meter (see DESIGN.md §2): disk enclosures with a power-state
machine and exact energy integration, a battery-backed cache with preload
and write-delay partitions, a block-virtualization layer, a storage
controller, and a power meter.
"""

from repro.storage.cache import (
    LRUBlockCache,
    PreloadPartition,
    StorageCache,
    WriteDelayPartition,
)
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure, IOResult
from repro.storage.meter import PowerMeter, PowerReading
from repro.storage.power import ControllerPowerModel, PowerModel, PowerState
from repro.storage.tiers import (
    ArchiveTier,
    FlashTier,
    StorageTier,
    TierKind,
    TierLedger,
)
from repro.storage.virtualization import BlockVirtualization, Volume

__all__ = [
    "ArchiveTier",
    "BlockVirtualization",
    "ControllerPowerModel",
    "DiskEnclosure",
    "FlashTier",
    "IOResult",
    "LRUBlockCache",
    "PowerMeter",
    "PowerModel",
    "PowerReading",
    "PowerState",
    "PreloadPartition",
    "StorageCache",
    "StorageController",
    "StorageTier",
    "TierKind",
    "TierLedger",
    "Volume",
    "WriteDelayPartition",
]
