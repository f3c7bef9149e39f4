"""Simulation context: the wired-together storage system under test.

A :class:`SimulationContext` bundles everything one experiment run needs
— configuration, enclosures, virtualization, cache, controller, monitors,
meter, action executor — and :func:`build_context` assembles it the way the
paper's testbed is assembled (Fig 5 / Fig 7): one controller over N
enclosures, the storage monitor tapping physical I/O, the application
monitor fed by the replayer.

The context holds no notion of time itself: virtual time lives in the
:mod:`repro.engine` kernel, which drives every component here through
the trace records and its two slots (timeline samples; fault bookkeeping
and checkpoints) and settles them at end of run.  One context backs one
measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.actions.executor import ActionExecutor
from repro.errors import ValidationError
from repro.config import EcoStorConfig
from repro.faults.clock import FaultClock
from repro.faults.plan import FaultPlan
from repro.monitoring.application import ApplicationMonitor
from repro.monitoring.storage import StorageMonitor
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.meter import PowerMeter
from repro.storage.tiers import (
    ARCHIVE_COST_PER_BYTE,
    FLASH_COST_PER_BYTE,
    HDD_COST_PER_BYTE,
    ArchiveTier,
    FlashTier,
    StorageTier,
    TierKind,
)
from repro.storage.virtualization import BlockVirtualization


@dataclass
class SimulationContext:
    """Everything a power policy and the replayer need to run."""

    config: EcoStorConfig
    virtualization: BlockVirtualization
    cache: StorageCache
    controller: StorageController
    app_monitor: ApplicationMonitor
    storage_monitor: StorageMonitor
    meter: PowerMeter
    #: The single mutation path into the storage layer (:mod:`repro.actions`).
    executor: ActionExecutor
    #: Fault oracle (:mod:`repro.faults`); ``None`` for zero-fault runs,
    #: in which case the storage layer takes its pre-fault code paths.
    fault_clock: FaultClock | None = None
    #: Which fleet array this context simulates (:mod:`repro.fleet`);
    #: ``None`` for standalone single-array runs.  When set, every
    #: enclosure (and therefore every default volume) name carries the
    #: ``"{array_id}:"`` prefix, so N array kernels can coexist in one
    #: fleet run without any component name colliding in the global
    #: books (action logs, fault plans, reports).
    array_id: str | None = None

    @property
    def enclosures(self) -> list[DiskEnclosure]:
        """All disk enclosures in the simulated array."""
        return self.virtualization.enclosures()

    def enclosure_names(self) -> list[str]:
        """Names of all enclosures in the simulated array."""
        return self.virtualization.enclosure_names


def build_context(
    config: EcoStorConfig,
    enclosure_count: int,
    *,
    flash_count: int = 0,
    archive_count: int = 0,
    enclosure_prefix: str = "enc",
    faults: FaultPlan | None = None,
    array_id: str | None = None,
) -> SimulationContext:
    """Assemble a fresh storage system with ``enclosure_count`` enclosures.

    Every device gets one default volume named after it, so callers can
    place items immediately; workload builders may create more volumes
    (Table I's File Server creates 36 across 12 enclosures).

    ``flash_count`` / ``archive_count`` add the multi-tier devices
    (:mod:`repro.storage.tiers`).  The HDD enclosures keep the
    ``"{enclosure_prefix}-NN"`` names *and* come first in the device
    order, so workload installs — which place items by index into the
    context's enclosure list — land every initial placement on the HDD
    tier.  Flash devices follow as ``flash-NN`` and archive devices as
    ``arc-NN``; data only reaches them through
    promote/demote/archive/replicate actions.  A tier exists only when
    its count is positive (tier actions targeting an absent tier are
    rejected by the executor); with both counts at zero the array is
    the paper's HDD-only testbed with one ``"hdd"`` tier.

    ``faults`` installs a :class:`~repro.faults.clock.FaultClock` wired
    into every enclosure and the controller.  A ``None`` or empty plan
    installs nothing at all, so zero-fault runs execute the exact
    pre-fault code paths (bit-identical results).

    ``array_id`` namespaces the array for fleet runs (:mod:`repro.fleet`):
    every device becomes ``"{array_id}:{name}"`` and the default volumes
    follow.  ``None`` keeps the legacy unprefixed names, so standalone
    runs (and 1-array fleets) stay bit-identical to the golden replay
    results.
    """
    if enclosure_count <= 0:
        raise ValidationError("enclosure_count must be positive")
    if flash_count < 0 or archive_count < 0:
        raise ValidationError("flash_count and archive_count must be >= 0")
    name_prefix = f"{array_id}:" if array_id is not None else ""
    hdds = [
        DiskEnclosure(
            name=f"{name_prefix}{enclosure_prefix}-{i:02d}",
            power_model=config.enclosure_power,
            iops_random=config.service_iops_random,
            iops_sequential=config.service_iops_sequential,
            capacity_bytes=config.enclosure_size_bytes,
            spin_down_timeout=config.spin_down_timeout,
        )
        for i in range(enclosure_count)
    ]
    flashes: list[DiskEnclosure] = [
        FlashTier(
            name=f"{name_prefix}flash-{i:02d}",
            capacity_bytes=config.flash_capacity_bytes,
        )
        for i in range(flash_count)
    ]
    archives: list[DiskEnclosure] = [
        ArchiveTier(
            name=f"{name_prefix}arc-{i:02d}",
            capacity_bytes=config.archive_capacity_bytes,
        )
        for i in range(archive_count)
    ]
    enclosures = hdds + flashes + archives
    shape = (
        ("flash", TierKind.FLASH, flashes, FLASH_COST_PER_BYTE),
        ("hdd", TierKind.HDD, hdds, HDD_COST_PER_BYTE),
        ("archive", TierKind.ARCHIVE, archives, ARCHIVE_COST_PER_BYTE),
    )
    tiers = tuple(
        StorageTier(
            name=name,
            kind=kind,
            devices=tuple(device.name for device in devices),
            cost_per_byte=cost,
        )
        for name, kind, devices, cost in shape
        if devices
    )
    virtualization = BlockVirtualization(enclosures, tiers=tiers)
    for enclosure in enclosures:
        virtualization.create_volume(f"vol/{enclosure.name}", enclosure.name)
    cache = StorageCache(
        total_bytes=config.storage_cache_bytes,
        preload_bytes=config.preload_cache_bytes,
        write_delay_bytes=config.write_delay_cache_bytes,
        dirty_block_rate=config.dirty_block_rate,
    )
    # The interval curve reads only gaps longer than the break-even
    # time, so the monitor keeps nothing shorter.
    storage_monitor = StorageMonitor(enclosures, config.break_even_time)
    controller = StorageController(
        virtualization,
        cache,
        migration_throughput_bps=config.migration_throughput_bps,
        physical_tap=storage_monitor.on_physical_fast,
        retry_backoff_base=config.fault_backoff_base,
        retry_backoff_cap=config.fault_backoff_cap,
    )
    fault_clock: FaultClock | None = None
    if faults is not None and faults:
        fault_clock = FaultClock(faults)
        for enclosure in enclosures:
            enclosure.set_fault_clock(fault_clock)
        controller.set_fault_clock(fault_clock)
    return SimulationContext(
        config=config,
        virtualization=virtualization,
        cache=cache,
        controller=controller,
        app_monitor=ApplicationMonitor(),
        storage_monitor=storage_monitor,
        meter=PowerMeter(enclosures, config.controller_power),
        executor=ActionExecutor(controller, config),
        fault_clock=fault_clock,
        array_id=array_id,
    )


def default_volume(enclosure_name: str) -> str:
    """Name of the default volume :func:`build_context` creates."""
    return f"vol/{enclosure_name}"
