"""Temperature-driven lifecycle policy over typed storage tiers.

:class:`TieredLifecyclePolicy` manages a FLASH / HDD / ARCHIVE array
(:func:`repro.simulation.build_context` with flash and archive devices)
with a per-item *temperature*: an exponentially-decayed access count
whose half-life is ``tier_half_life``.  Each checkpoint classifies every item —

* **HOT** (temperature ≥ ``tier_hot_temperature``) → promote to flash;
* **WARM** (between the thresholds) → keep (or demote back) on HDD;
* **COLD** (below ``tier_cold_temperature``) → demote off flash; after
  ``tier_frozen_periods`` consecutive COLD windows the item is
  **FROZEN** → move to the archive tier;

and composes the paper's §IV-C hot/cold enclosure determination
(:mod:`repro.core.hotcold`) over the *HDD* devices: HOT/WARM items
count as P3 load, the split picks the HDD enclosures that must stay
powered, and power-off is enabled on the rest — so the single-tier
energy machinery keeps working underneath the tier moves.

All placement mutations travel as :class:`~repro.actions.plan.ActionPlan`
values through the context executor (check R9): every
inter-tier move is an auditable
:class:`~repro.actions.records.ActionRecord`.  An archived item that is
accessed (paying the archive shelf's long spin-up) is promoted back to
HDD at the next checkpoint — the invariant auditor proves no archived
copy keeps serving I/O without a promote record.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.actions.plan import ActionPlan
from repro.actions.records import (
    Action,
    ArchiveItem,
    DemoteItem,
    PromoteItem,
    ReplicateItem,
)
from repro.baselines.base import PowerPolicy
from repro.core.hotcold import choose_hot_cold, required_hot_count
from repro.core.patterns import (
    DEFAULT_IOPS_BUCKET_SECONDS,
    P0_CODE,
    P3_CODE,
    ProfileTable,
)
from repro.storage.virtualization import BlockVirtualization

#: Tier names :func:`repro.simulation.build_context` wires up.
FLASH_TIER = "flash"
HDD_TIER = "hdd"
ARCHIVE_TIER = "archive"


def _bucket_counts() -> defaultdict[int, int]:
    """An empty per-bucket I/O count (a module-level factory pickles)."""
    return defaultdict(int)


class TieredLifecyclePolicy(PowerPolicy):
    """Hot→flash / warm→HDD / frozen→archive temperature lifecycle."""

    __slots__ = (
        "monitoring_period",
        "half_life",
        "replicate_hot",
        "_next_checkpoint",
        "_window_start",
        "_temperature",
        "_window_counts",
        "_window_buckets",
        "_cold_streak",
        "_preferred_hot",
    )

    name = "tiered-lifecycle"

    def __init__(
        self,
        monitoring_period: float | None = None,
        half_life: float | None = None,
        replicate_hot: bool = False,
    ) -> None:
        """``replicate_hot`` additionally keeps an HDD replica of the
        hottest flash-resident item, so a flash device loss cannot lose
        the busiest data (exercises the replicate action end-to-end)."""
        super().__init__()
        self.monitoring_period = monitoring_period
        self.half_life = half_life
        self.replicate_hot = replicate_hot
        self._next_checkpoint: float | None = None
        self._window_start = 0.0
        self._temperature: dict[str, float] = {}
        self._window_counts: defaultdict[str, int] = defaultdict(int)
        self._window_buckets: defaultdict[str, defaultdict[int, int]] = (
            defaultdict(_bucket_counts)
        )
        self._cold_streak: defaultdict[str, int] = defaultdict(int)
        self._preferred_hot: set[str] = set()

    # ------------------------------------------------------------------
    def on_start(self, now: float) -> None:
        """Read config defaults, arm archive power-off, start the window."""
        context = self._require_context()
        config = context.config
        if self.monitoring_period is None:
            self.monitoring_period = config.tier_monitoring_period
        if self.half_life is None:
            self.half_life = config.tier_half_life
        self._window_start = now
        self._next_checkpoint = now + self.monitoring_period
        # The archive shelf should spend its life off; flash ignores
        # enablement entirely; HDD enablement follows the per-window
        # hot/cold split.
        virt = context.virtualization
        if ARCHIVE_TIER in virt.tier_names:
            for device in virt.devices_in_tier(ARCHIVE_TIER):
                self.apply_power_off(virt.enclosure(device), now, True)

    def next_checkpoint(self) -> float | None:
        """Time of the next lifecycle checkpoint."""
        return self._next_checkpoint

    # ------------------------------------------------------------------
    def after_io(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
        response_time: float,
    ) -> None:
        """Count the access for this window's temperatures and buckets."""
        self._window_counts[item_id] += 1
        bucket = int(
            (timestamp - self._window_start) // DEFAULT_IOPS_BUCKET_SECONDS
        )
        self._window_buckets[item_id][bucket] += 1

    # ------------------------------------------------------------------
    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """Age temperatures, classify, and plan the tier moves."""
        context = self._require_context()
        virt = context.virtualization
        config = context.config
        period = now - self._window_start
        if period <= 0:
            self._schedule_next(now)
            return None
        assert self.half_life is not None
        decay = 0.5 ** (period / self.half_life)

        # Age every placed item's temperature and fold in this window.
        hot: set[str] = set()
        frozen: set[str] = set()
        cold: set[str] = set()
        for item in virt.item_ids():
            temperature = self._temperature.get(item, 0.0) * decay
            temperature += self._window_counts.get(item, 0)
            self._temperature[item] = temperature
            if temperature >= config.tier_hot_temperature:
                hot.add(item)
                self._cold_streak[item] = 0
            elif temperature < config.tier_cold_temperature:
                cold.add(item)
                self._cold_streak[item] += 1
                if self._cold_streak[item] >= config.tier_frozen_periods:
                    frozen.add(item)
            else:
                self._cold_streak[item] = 0
        self.determinations += 1

        actions = self._plan_tier_moves(virt, hot, cold, frozen)
        plan = ActionPlan(actions)
        self.executor().apply(now, plan)

        self._split_hdd_enclosures(now, hot, period)

        self._window_counts.clear()
        self._window_buckets.clear()
        self._window_start = now
        self._schedule_next(now)
        return plan

    def _plan_tier_moves(
        self,
        virt: BlockVirtualization,
        hot: set[str],
        cold: set[str],
        frozen: set[str],
    ) -> list[Action]:
        """Build the checkpoint's promote/demote/archive action list."""
        tier_names = set(virt.tier_names)
        actions: list[Action] = []

        # Archived items that served I/O must come back up: the archive
        # tier is for frozen data, and the auditor requires a promote
        # record for every archive-serviced item.
        if ARCHIVE_TIER in tier_names:
            for item in sorted(
                self._require_context().controller.archive_serviced_items
            ):
                if virt.tier_of_item(item).name == ARCHIVE_TIER:
                    actions.append(PromoteItem(item, HDD_TIER))
                    frozen.discard(item)
                    self._cold_streak[item] = 0

        # HOT → flash, hottest first, bounded by the tier's free bytes
        # (the executor re-checks per device; this guard just avoids
        # planning promotions that cannot possibly fit).
        if FLASH_TIER in tier_names:
            flash_free = sum(
                virt.free_bytes(device)
                for device in virt.devices_in_tier(FLASH_TIER)
            )
            for item in sorted(
                hot, key=lambda i: (-self._temperature[i], i)
            ):
                if virt.tier_of_item(item).name == FLASH_TIER:
                    continue
                size = virt.item_size(item)
                if size > flash_free:
                    continue
                flash_free -= size
                actions.append(PromoteItem(item, FLASH_TIER))
            if self.replicate_hot:
                actions.extend(self._plan_hot_replica(virt, hot))

        # Anything on flash that is no longer HOT goes back to HDD.
        for device in (
            virt.devices_in_tier(FLASH_TIER)
            if FLASH_TIER in tier_names
            else ()
        ):
            for item in sorted(virt.items_on(device)):
                if item not in hot:
                    actions.append(DemoteItem(item, HDD_TIER))

        # FROZEN → archive, coldest first, bounded by archive free bytes.
        if ARCHIVE_TIER in tier_names:
            archive_free = sum(
                virt.free_bytes(device)
                for device in virt.devices_in_tier(ARCHIVE_TIER)
            )
            for item in sorted(
                frozen, key=lambda i: (self._temperature[i], i)
            ):
                if virt.tier_of_item(item).name == ARCHIVE_TIER:
                    continue
                size = virt.item_size(item)
                if size > archive_free:
                    continue
                archive_free -= size
                actions.append(ArchiveItem(item))
        return actions

    def _plan_hot_replica(
        self, virt: BlockVirtualization, hot: set[str]
    ) -> list[Action]:
        """Replicate the hottest flash-resident item onto HDD (opt-in)."""
        candidates = sorted(
            (
                item
                for item in hot
                if virt.tier_of_item(item).name == FLASH_TIER
                and not virt.replicas_of(item)
            ),
            key=lambda i: (-self._temperature[i], i),
        )
        if not candidates:
            return []
        return [ReplicateItem(candidates[0], HDD_TIER)]

    def _split_hdd_enclosures(
        self, now: float, hot: set[str], period: float
    ) -> None:
        """§IV-C hot/cold split over the HDD devices; set power-off."""
        context = self._require_context()
        virt = context.virtualization
        config = context.config
        hdd_devices = virt.devices_in_tier(HDD_TIER)
        bucket_seconds = DEFAULT_IOPS_BUCKET_SECONDS
        bucket_count = max(1, math.ceil(period / bucket_seconds))
        item_ids: list[str] = []
        device_codes: list[int] = []
        bucket_rows: list[list[int]] = []
        peaks: list[float] = []
        for code, device in enumerate(hdd_devices):
            for item in virt.items_on(device):
                counts = self._window_buckets.get(item, {})
                item_ids.append(item)
                device_codes.append(code)
                bucket_rows.append(
                    [counts.get(index, 0) for index in range(bucket_count)]
                )
                peaks.append(
                    max(counts.values()) / bucket_seconds if counts else 0.0
                )
        rows = len(item_ids)
        io_count = np.array(
            [self._window_counts.get(item, 0) for item in item_ids],
            dtype=np.int64,
        )
        no_bytes = np.zeros(rows, dtype=np.int64)
        no_entries = np.zeros(rows + 1, dtype=np.intp)
        profiles = ProfileTable(
            item_ids=tuple(item_ids),
            size_bytes=np.array(
                [virt.item_size(item) for item in item_ids], dtype=np.int64
            ),
            enclosure_names=tuple(hdd_devices),
            enclosure_codes=np.array(device_codes, dtype=np.intp),
            pattern_codes=np.array(
                [P3_CODE if item in hot else P0_CODE for item in item_ids],
                dtype=np.intp,
            ),
            io_count=io_count,
            read_count=io_count,
            read_bytes=no_bytes,
            write_bytes=no_bytes,
            mean_iops=io_count / period,
            peak_iops=np.array(peaks, dtype=np.float64),
            bucket_counts=np.array(bucket_rows, dtype=np.int64).reshape(
                rows, bucket_count
            ),
            interval_starts=np.zeros(0),
            interval_ends=np.zeros(0),
            interval_bounds=no_entries,
            sequence_starts=np.zeros(0),
            sequence_ends=np.zeros(0),
            sequence_reads=np.zeros(0, dtype=np.int64),
            sequence_writes=np.zeros(0, dtype=np.int64),
            sequence_bounds=no_entries,
        )
        n_hot, i_max = required_hot_count(
            profiles,
            config.max_iops_random,
            config.enclosure_size_bytes,
            bucket_seconds,
        )
        split = choose_hot_cold(
            profiles,
            hdd_devices,
            n_hot,
            i_max,
            preferred_hot=self._preferred_hot,
        )
        self._preferred_hot = set(split.hot)
        for device in hdd_devices:
            self.apply_power_off(
                virt.enclosure(device), now, split.is_cold(device)
            )

    def _schedule_next(self, now: float) -> None:
        assert self.monitoring_period is not None
        self._next_checkpoint = now + self.monitoring_period

    # ------------------------------------------------------------------
    def on_end(self, now: float) -> None:
        """Final sweep: promote any still-archived serviced items.

        Runs before the kernel's finish hooks, so the invariant
        auditor's end-of-run archive-service check sees the promote
        records this plans.
        """
        context = self._require_context()
        virt = context.virtualization
        if ARCHIVE_TIER not in virt.tier_names:
            return
        actions: list[Action] = [
            PromoteItem(item, HDD_TIER)
            for item in sorted(context.controller.archive_serviced_items)
            if virt.tier_of_item(item).name == ARCHIVE_TIER
        ]
        if actions:
            self.executor().apply(now, ActionPlan(actions))
