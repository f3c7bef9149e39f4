"""The action executor: the single mutation path into the storage layer.

Policies plan; the :class:`ActionExecutor` applies.  Every
:class:`~repro.actions.plan.ActionPlan` goes through :meth:`ActionExecutor.apply`,
which routes each action to the one
:class:`~repro.storage.controller.StorageController` / enclosure call
that realizes it, consults the fault machinery exactly where the
pre-action code paths did (``MigrationAbortedError`` from the
controller; the degraded-mode cool-down gate for power-off enablement),
and emits one :class:`~repro.actions.records.ActionRecord` per action.

Timing model (matches the serialized pre-action call sequences
bit-for-bit):

* consecutive :class:`~repro.actions.records.MigrateItem` actions chain —
  each starts at the previous migration's completion, the §V-A
  one-at-a-time throttled migration;
* every other action starts at the plan's submission time ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.actions.plan import ActionPlan
from repro.actions.records import (
    Action,
    ActionOutcome,
    ActionRecord,
    ArchiveItem,
    ChargeBlockMigration,
    DemoteItem,
    EnableWriteDelay,
    FlushItem,
    FlushWriteDelay,
    MigrateItem,
    PreloadItem,
    PromoteItem,
    ReplicateItem,
    SetPowerOffEnabled,
    UnpinItem,
)
from repro.capture import Snapshottable
from repro.errors import CapacityError, MigrationAbortedError, UsageError
from repro.storage.cache import PAGE_BYTES
from repro.storage.tiers import TierKind

#: Action types whose applied/aborted counts roll into the executor's
#: migration aggregates: all of them delegate to the controller's
#: migration machinery, so the auditor's one-directional consistency
#: check against ``controller.migration_count`` must see them.
#: :class:`ReplicateItem` is deliberately absent — a replica copy is a
#: transfer but not a move, and the controller books it under
#: ``replication_count`` / ``replicated_bytes``, never as a migration.
_MIGRATION_ACTIONS = (
    MigrateItem,
    ChargeBlockMigration,
    PromoteItem,
    DemoteItem,
    ArchiveItem,
)

#: Inter-tier move actions that chain on the serialized migration clock.
TierMoveAction = PromoteItem | DemoteItem | ArchiveItem | ReplicateItem

# Enum members bound once: on CPython 3.11 each ``ActionOutcome.X`` load
# in a method body goes through ``EnumType.__getattr__``, and
# :meth:`ActionExecutor._count` tests every record's outcome.
_APPLIED = ActionOutcome.APPLIED
_REJECTED = ActionOutcome.REJECTED
_ABORTED_BY_FAULT = ActionOutcome.ABORTED_BY_FAULT
_VETOED_BY_DEGRADED_MODE = ActionOutcome.VETOED_BY_DEGRADED_MODE
_ARCHIVE = TierKind.ARCHIVE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import EcoStorConfig
    from repro.storage.controller import StorageController
    from repro.storage.enclosure import DiskEnclosure

__all__ = ["ActionExecutor", "ApplyReport"]


@dataclass(frozen=True)
class ApplyReport:
    """Outcome of applying one plan: one record per action, in plan order."""

    records: tuple[ActionRecord, ...]

    @property
    def moves_executed(self) -> int:
        """Applied :class:`MigrateItem` actions in this plan."""
        return sum(
            1
            for r in self.records
            if isinstance(r.action, MigrateItem)
            and r.outcome is _APPLIED
        )

    @property
    def moves_aborted(self) -> int:
        """Fault-aborted :class:`MigrateItem` actions in this plan."""
        return sum(
            1
            for r in self.records
            if isinstance(r.action, MigrateItem)
            and r.outcome is _ABORTED_BY_FAULT
        )

    @property
    def bytes_moved(self) -> int:
        """Payload bytes of applied :class:`MigrateItem` actions."""
        return sum(
            r.cost_bytes
            for r in self.records
            if isinstance(r.action, MigrateItem)
            and r.outcome is _APPLIED
        )


class ActionExecutor(Snapshottable):
    """Applies action plans to the storage layer; owns the action log.

    The executor is the *only* component that may call the controller's
    mutators or an enclosure's power-off enablement (check R9
    enforces this across ``src/``).  It also owns the degraded-mode
    power-off gate that used to live on the policy base class: the
    per-enclosure cool-down state must sit beside the component that
    applies power decisions, not on each planner.

    Its snapshot state is the action log, every outcome counter and
    the gate's per-enclosure cool-down deadlines.
    """

    __slots__ = (
        "controller",
        "config",
        "log",
        "actions_applied",
        "actions_aborted",
        "actions_vetoed",
        "actions_rejected",
        "migrations_applied",
        "migrations_aborted",
        "migrated_bytes_applied",
        "promotes_applied",
        "demotes_applied",
        "archives_applied",
        "replicates_applied",
        "promote_attempt_items",
        "_cooldown_until",
        "degraded_cooldowns",
    )

    _REBUILT = frozenset({"controller", "config"})

    _LOGS = frozenset({"log"})

    def __init__(
        self,
        controller: StorageController,
        config: EcoStorConfig | None = None,
    ) -> None:
        self.controller = controller
        self.config = config
        #: Every record of every apply, in order.
        self.log: list[ActionRecord] = []

        # Outcome counters.
        self.actions_applied = 0
        self.actions_aborted = 0
        self.actions_vetoed = 0
        self.actions_rejected = 0
        # Migration-flavoured aggregates, for the invariant auditor's
        # one-directional consistency check against controller books.
        self.migrations_applied = 0
        self.migrations_aborted = 0
        self.migrated_bytes_applied = 0
        # Tier-lifecycle aggregates (repro.storage.tiers).
        self.promotes_applied = 0
        self.demotes_applied = 0
        self.archives_applied = 0
        self.replicates_applied = 0
        #: Items named by any :class:`PromoteItem` record, whatever the
        #: outcome — the auditor's "no service from an archived copy
        #: without a promote record" check consults this.
        self.promote_attempt_items: set[str] = set()

        # Degraded-mode gate state (was PowerPolicy._cooldown_until).
        self._cooldown_until: dict[str, float] = {}
        #: Times the gate vetoed a power-off enablement.
        self.degraded_cooldowns = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def apply(self, now: float, plan: ActionPlan) -> ApplyReport:
        """Apply ``plan`` starting at virtual time ``now``.

        Returns one :class:`ApplyReport` carrying a record per action in
        plan order; the records are also appended to :attr:`log`.
        """
        records: list[ActionRecord] = []
        migration_clock = now
        for action in plan:
            record, migration_clock = self._apply_one(
                now, action, migration_clock
            )
            records.append(record)
        self._count(records)
        self.log.extend(records)
        return ApplyReport(records=tuple(records))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, records: list[ActionRecord]) -> None:
        for record in records:
            outcome = record.outcome
            if outcome is _APPLIED:
                self.actions_applied += 1
            elif outcome is _ABORTED_BY_FAULT:
                self.actions_aborted += 1
            elif outcome is _VETOED_BY_DEGRADED_MODE:
                self.actions_vetoed += 1
            else:
                self.actions_rejected += 1
            action = record.action
            if isinstance(action, _MIGRATION_ACTIONS):
                if outcome is _APPLIED:
                    self.migrations_applied += 1
                    self.migrated_bytes_applied += record.cost_bytes
                elif outcome is _ABORTED_BY_FAULT:
                    self.migrations_aborted += 1
            if isinstance(action, PromoteItem):
                self.promote_attempt_items.add(action.item_id)
                if outcome is _APPLIED:
                    self.promotes_applied += 1
            elif isinstance(action, DemoteItem):
                if outcome is _APPLIED:
                    self.demotes_applied += 1
            elif isinstance(action, ArchiveItem):
                if outcome is _APPLIED:
                    self.archives_applied += 1
            elif isinstance(action, ReplicateItem):
                if outcome is _APPLIED:
                    self.replicates_applied += 1

    def _delta_watts(self, enclosure: DiskEnclosure) -> float:
        model = enclosure.power_model
        return model.active_watts - model.idle_watts

    def _mean_delta_watts(self) -> float:
        enclosures = self.controller.virtualization.enclosures()
        if not enclosures:
            return 0.0
        return sum(self._delta_watts(e) for e in enclosures) / len(enclosures)

    def _bulk_seconds(self, size_bytes: int) -> float:
        return size_bytes / self.controller.bulk_bandwidth_bps

    # ------------------------------------------------------------------
    # per-action application
    # ------------------------------------------------------------------
    def _apply_one(
        self, now: float, action: Action, migration_clock: float
    ) -> tuple[ActionRecord, float]:
        if isinstance(action, MigrateItem):
            return self._apply_migrate(action, migration_clock)
        if isinstance(
            action, (PromoteItem, DemoteItem, ArchiveItem, ReplicateItem)
        ):
            return self._apply_tier_move(action, migration_clock)
        if isinstance(action, PreloadItem):
            return self._apply_preload(now, action), migration_clock
        if isinstance(action, UnpinItem):
            return self._apply_unpin(now, action), migration_clock
        if isinstance(action, EnableWriteDelay):
            return self._apply_write_delay(now, action), migration_clock
        if isinstance(action, FlushItem):
            return self._apply_flush_item(now, action), migration_clock
        if isinstance(action, FlushWriteDelay):
            return self._apply_flush_all(now, action), migration_clock
        if isinstance(action, SetPowerOffEnabled):
            return self._apply_power_off(now, action), migration_clock
        if isinstance(action, ChargeBlockMigration):
            return self._apply_block_charge(now, action), migration_clock
        raise UsageError(f"executor cannot apply action {action!r}")

    def _apply_migrate(
        self, action: MigrateItem, start: float
    ) -> tuple[ActionRecord, float]:
        controller = self.controller
        virt = controller.virtualization
        item_id = action.item_id
        target = action.target_enclosure

        def rejected(reason: str) -> tuple[ActionRecord, float]:
            return (
                ActionRecord(
                    action, _REJECTED, start, start, reason=reason
                ),
                start,
            )

        if not virt.has_item(item_id):
            return rejected("unknown-item")
        src = virt.enclosure_of(item_id)
        if src.name == target:
            return rejected("already-placed")
        size = virt.item_size(item_id)
        dst = virt.enclosure(target)
        busy = self._bulk_seconds(size)
        joules = (self._delta_watts(src) + self._delta_watts(dst)) * busy
        try:
            completion = controller.migrate_item(start, item_id, target)
        except CapacityError:
            return rejected("capacity")
        except MigrationAbortedError:
            return (
                ActionRecord(
                    action,
                    _ABORTED_BY_FAULT,
                    start,
                    start,
                    reason="migration-abort",
                ),
                start,
            )
        return (
            ActionRecord(
                action,
                _APPLIED,
                start,
                completion,
                cost_seconds=completion - start,
                cost_joules=joules,
                cost_bytes=size,
            ),
            completion,
        )

    def _resolve_tier_target(
        self, action: TierMoveAction
    ) -> tuple[str | None, str | None]:
        """Resolve a tier-move action to ``(target device, reject reason)``.

        Pure reads only.  Exactly one of the pair is non-``None``.  The target device is chosen deterministically
        inside the target tier: the device with the most free bytes that
        fits the item (undeclared-capacity devices count as unbounded),
        ties broken by name.
        """
        virt = self.controller.virtualization
        item_id = action.item_id
        if not virt.has_item(item_id):
            return None, "unknown-item"
        if isinstance(action, ArchiveItem):
            archive_tiers = [
                tier
                for tier in virt.tiers()
                if tier.kind is _ARCHIVE
            ]
            if not archive_tiers:
                return None, "no-archive-tier"
            target_tier = archive_tiers[0]
        else:
            if action.target_tier not in virt.tier_names:
                return None, "unknown-tier"
            target_tier = virt.tier(action.target_tier)
        current_tier = virt.tier_of_item(item_id)
        if isinstance(action, ReplicateItem):
            if current_tier.name == target_tier.name:
                return None, "already-placed"
        elif current_tier.name == target_tier.name:
            return None, "already-placed"
        elif isinstance(action, PromoteItem):
            if target_tier.kind.rank >= current_tier.kind.rank:
                return None, "not-a-promotion"
        elif target_tier.kind.rank <= current_tier.kind.rank:
            return None, "not-a-demotion"
        size = virt.item_size(item_id)
        primary = virt.enclosure_of(item_id).name
        replicas = (
            virt.replicas_of(item_id)
            if isinstance(action, ReplicateItem)
            else ()
        )
        best: tuple[float, str] | None = None
        for device in target_tier.devices:
            if device == primary or device in replicas:
                continue
            enclosure = virt.enclosure(device)
            if enclosure.capacity_bytes:
                free = (
                    enclosure.capacity_bytes
                    - virt.used_bytes(device)
                    - virt.replica_bytes_on(device)
                )
                if free < size:
                    continue
            else:
                free = float("inf")
            # max free bytes wins; the name tuple compare breaks ties
            # ascending because free is negated.
            key = (-free, device)
            if best is None or key < best:
                best = key
        if best is None:
            return None, "capacity"
        return best[1], None

    def _apply_tier_move(
        self, action: TierMoveAction, start: float
    ) -> tuple[ActionRecord, float]:
        """Apply one inter-tier move (promote/demote/archive/replicate).

        Mirrors :meth:`_apply_migrate`: chained on the serialized
        migration clock, fault-abort draws apply, and a resolved target
        device sitting inside the degraded-mode gate's cool-down window
        vetoes the move (migrating onto a drive that keeps failing to
        spin up would strand the data there).
        """
        controller = self.controller
        virt = controller.virtualization
        item_id = action.item_id

        def finish(
            outcome: ActionOutcome, reason: str
        ) -> tuple[ActionRecord, float]:
            return (
                ActionRecord(action, outcome, start, start, reason=reason),
                start,
            )

        target, reject_reason = self._resolve_tier_target(action)
        if target is None:
            return finish(_REJECTED, reject_reason or "")
        if start < self._cooldown_until.get(target, 0.0):
            return finish(_VETOED_BY_DEGRADED_MODE, "cooldown")
        size = virt.item_size(item_id)
        src = virt.enclosure_of(item_id)
        dst = virt.enclosure(target)
        busy = self._bulk_seconds(size)
        joules = (self._delta_watts(src) + self._delta_watts(dst)) * busy
        try:
            if isinstance(action, PromoteItem):
                completion = controller.promote_item(start, item_id, target)
            elif isinstance(action, DemoteItem):
                completion = controller.demote_item(start, item_id, target)
            elif isinstance(action, ArchiveItem):
                completion = controller.archive_item(start, item_id, target)
            else:
                completion = controller.replicate_item(start, item_id, target)
        except CapacityError:
            return finish(_REJECTED, "capacity")
        except MigrationAbortedError:
            return finish(_ABORTED_BY_FAULT, "migration-abort")
        return (
            ActionRecord(
                action,
                _APPLIED,
                start,
                completion,
                cost_seconds=completion - start,
                cost_joules=joules,
                cost_bytes=size,
            ),
            completion,
        )

    def _apply_preload(self, now: float, action: PreloadItem) -> ActionRecord:
        controller = self.controller
        virt = controller.virtualization
        item_id = action.item_id
        if not virt.has_item(item_id):
            return ActionRecord(
                action,
                _REJECTED,
                now,
                now,
                reason="unknown-item",
            )
        if controller.cache.preload.is_pinned(item_id):
            return ActionRecord(
                action,
                _APPLIED,
                now,
                now,
                reason="already-pinned",
            )
        size = virt.item_size(item_id)
        joules = self._delta_watts(virt.enclosure_of(item_id)) * (
            self._bulk_seconds(size)
        )
        try:
            completion = controller.preload_item(now, item_id)
        except CapacityError:
            return ActionRecord(
                action, _REJECTED, now, now, reason="capacity"
            )
        return ActionRecord(
            action,
            _APPLIED,
            now,
            completion,
            cost_seconds=completion - now,
            cost_joules=joules,
            cost_bytes=size,
        )

    def _apply_unpin(self, now: float, action: UnpinItem) -> ActionRecord:
        pinned = self.controller.cache.preload.is_pinned(action.item_id)
        self.controller.unpin_item(action.item_id)
        return ActionRecord(
            action,
            _APPLIED,
            now,
            now,
            reason="" if pinned else "not-pinned",
        )

    def _apply_write_delay(
        self, now: float, action: EnableWriteDelay
    ) -> ActionRecord:
        controller = self.controller
        wd = controller.cache.write_delay
        flushed_before = wd.flushed_pages
        completion = controller.select_write_delay(now, set(action.item_ids))
        flush_bytes = (wd.flushed_pages - flushed_before) * PAGE_BYTES
        return ActionRecord(
            action,
            _APPLIED,
            now,
            completion,
            cost_seconds=completion - now,
            cost_joules=self._mean_delta_watts()
            * self._bulk_seconds(flush_bytes),
            cost_bytes=flush_bytes,
            reason="battery-failed" if controller.battery_failed else "",
        )

    def _apply_flush_item(self, now: float, action: FlushItem) -> ActionRecord:
        controller = self.controller
        dirty = controller.cache.write_delay.dirty_bytes_of(action.item_id)
        completion = controller.flush_item(now, action.item_id)
        return ActionRecord(
            action,
            _APPLIED,
            now,
            completion,
            cost_seconds=completion - now,
            cost_joules=self._mean_delta_watts() * self._bulk_seconds(dirty),
            cost_bytes=dirty,
            reason="" if dirty else "no-dirty-data",
        )

    def _apply_flush_all(
        self, now: float, action: FlushWriteDelay
    ) -> ActionRecord:
        controller = self.controller
        wd = controller.cache.write_delay
        flushed_before = wd.flushed_pages
        completion = controller.flush_write_delay(now)
        flush_bytes = (wd.flushed_pages - flushed_before) * PAGE_BYTES
        return ActionRecord(
            action,
            _APPLIED,
            now,
            completion,
            cost_seconds=completion - now,
            cost_joules=self._mean_delta_watts()
            * self._bulk_seconds(flush_bytes),
            cost_bytes=flush_bytes,
        )

    def _apply_power_off(
        self, now: float, action: SetPowerOffEnabled
    ) -> ActionRecord:
        enclosure = self.controller.virtualization.enclosure(action.enclosure)
        if not action.enabled:
            enclosure.disable_power_off(now)
            return ActionRecord(action, _APPLIED, now, now)
        veto_reason = self._gate_veto(enclosure, now)
        if veto_reason is not None:
            enclosure.disable_power_off(now)
            return ActionRecord(
                action,
                _VETOED_BY_DEGRADED_MODE,
                now,
                now,
                reason=veto_reason,
            )
        enclosure.enable_power_off(now)
        return ActionRecord(action, _APPLIED, now, now)

    def _gate_veto(self, enclosure: DiskEnclosure, now: float) -> str | None:
        """Degraded-mode gate: veto reason for enabling power-off, or None.

        When an enclosure's recent spin-up failures (within
        ``config.spin_up_failure_window``) reach
        ``config.spin_up_failure_threshold``, the enclosure enters a
        cool-down of ``config.power_off_cooldown`` seconds during which
        enablement is vetoed — a drive that keeps failing to spin up
        should not keep being spun down.  Without fault injection there
        are no recorded failures and the gate is a transparent
        pass-through.
        """
        until = self._cooldown_until.get(enclosure.name, 0.0)
        if now < until:
            return "cooldown"
        failures = enclosure.spin_up_failure_times
        if failures:
            if self.config is None:
                raise UsageError(
                    "degraded-mode gate needs an executor config to judge "
                    f"spin-up failures on {enclosure.name!r}"
                )
            window_start = now - self.config.spin_up_failure_window
            recent = sum(1 for t in failures if t >= window_start)
            if recent >= self.config.spin_up_failure_threshold:
                self._cooldown_until[enclosure.name] = (
                    now + self.config.power_off_cooldown
                )
                self.degraded_cooldowns += 1
                return "degraded-mode"
        return None

    def _apply_block_charge(
        self, now: float, action: ChargeBlockMigration
    ) -> ActionRecord:
        controller = self.controller
        if action.size_bytes <= 0:
            return ActionRecord(
                action,
                _REJECTED,
                now,
                now,
                reason="non-positive-size",
            )
        virt = controller.virtualization
        seconds = self._bulk_seconds(action.size_bytes)
        joules = (
            self._delta_watts(virt.enclosure(action.source_enclosure))
            + self._delta_watts(virt.enclosure(action.target_enclosure))
        ) * seconds
        completion = controller.charge_block_migration(
            now,
            action.item_id,
            action.size_bytes,
            action.source_enclosure,
            action.target_enclosure,
        )
        return ActionRecord(
            action,
            _APPLIED,
            now,
            completion,
            cost_seconds=completion - now,
            cost_joules=joules,
            cost_bytes=action.size_bytes,
        )
