"""Tests for :class:`repro.actions.executor.ActionExecutor`."""

from __future__ import annotations

import pytest

from repro import units
from repro.actions.executor import ActionExecutor
from repro.actions.plan import ActionPlan
from repro.actions.records import (
    ActionOutcome,
    ChargeBlockMigration,
    EnableWriteDelay,
    FlushItem,
    FlushWriteDelay,
    MigrateItem,
    PreloadItem,
    SetPowerOffEnabled,
    UnpinItem,
)
from repro.config import EcoStorConfig
from repro.simulation import SimulationContext, build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields


def books_snapshot(context: SimulationContext) -> dict:
    """Every book an apply could change."""
    virt = context.virtualization
    wd = context.cache.write_delay
    executor = context.executor
    return {
        "used": {n: virt.used_bytes(n) for n in virt.enclosure_names},
        "pinned": sorted(context.cache.preload.item_ids()),
        "selected": sorted(wd.selected_items()),
        "dirty_pages": wd.dirty_pages,
        "absorbed_pages": wd.absorbed_pages,
        "flushed_pages": wd.flushed_pages,
        "migrated_bytes": context.controller.migrated_bytes,
        "migration_count": context.controller.migration_count,
        "enclosure_energy": [
            (e.name, e.state, e.clock, e.energy_joules())
            for e in context.enclosures
        ],
        "log_len": len(executor.log),
        "counters": (
            executor.actions_applied,
            executor.actions_aborted,
            executor.actions_vetoed,
            executor.actions_rejected,
        ),
        "cooldowns": dict(executor._cooldown_until),
    }


class TestContextWiring:
    def test_context_builds_shared_executor(self, small_context):
        executor = small_context.executor
        assert isinstance(executor, ActionExecutor)
        assert executor.controller is small_context.controller
        assert executor.config is small_context.config


class TestMigrate:
    def test_applied_migration_moves_item_and_logs(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            0.0, ActionPlan([MigrateItem("item-0", "enc-01")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.cost_bytes == 64 * units.MB
        assert record.completion > record.time
        virt = small_context.virtualization
        assert virt.enclosure_of("item-0").name == "enc-01"
        assert executor.log == [record]
        assert report.moves_executed == 1
        assert report.bytes_moved == 64 * units.MB

    def test_consecutive_migrations_chain_in_time(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            0.0,
            ActionPlan(
                [
                    MigrateItem("item-0", "enc-01"),
                    MigrateItem("item-2", "enc-01"),
                ]
            ),
        )
        first, second = report.records
        assert second.time == first.completion

    def test_unknown_item_and_already_placed_rejected(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            5.0,
            ActionPlan(
                [
                    MigrateItem("no-such-item", "enc-01"),
                    MigrateItem("item-0", "enc-00"),
                ]
            ),
        )
        assert [r.outcome for r in report.records] == [
            ActionOutcome.REJECTED,
            ActionOutcome.REJECTED,
        ]
        assert [r.reason for r in report.records] == [
            "unknown-item",
            "already-placed",
        ]
        assert executor.actions_rejected == 2
        assert small_context.controller.migrated_bytes == 0

    def test_capacity_rejection(self, config):
        context = build_context(config, 2)
        virt = context.virtualization
        names = virt.enclosure_names
        cap = config.enclosure_size_bytes
        virt.add_item("big-0", cap - units.MB, default_volume(names[0]))
        virt.add_item("big-1", cap - units.MB, default_volume(names[1]))
        report = context.executor.apply(
            0.0, ActionPlan([MigrateItem("big-0", names[1])])
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "capacity"


class TestPreloadUnpin:
    def test_preload_then_stale_unpin(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            0.0,
            ActionPlan([PreloadItem("item-0"), UnpinItem("item-0")]),
        )
        pin, unpin = report.records
        assert pin.outcome is ActionOutcome.APPLIED
        assert pin.cost_bytes == 64 * units.MB
        assert unpin.outcome is ActionOutcome.APPLIED
        assert unpin.reason == ""
        assert not small_context.cache.preload.is_pinned("item-0")

    def test_preload_already_pinned_is_noop(self, small_context):
        executor = small_context.executor
        executor.apply(0.0, ActionPlan([PreloadItem("item-0")]))
        report = executor.apply(1.0, ActionPlan([PreloadItem("item-0")]))
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.reason == "already-pinned"
        assert record.cost_bytes == 0

    def test_unpin_never_pinned_item_is_recorded_noop(self, small_context):
        """Edge case: unpinning an item that was never preloaded."""
        executor = small_context.executor
        before = books_snapshot(small_context)
        report = executor.apply(0.0, ActionPlan([UnpinItem("item-1")]))
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.reason == "not-pinned"
        after = books_snapshot(small_context)
        before["log_len"], after["log_len"] = 0, 0
        before["counters"], after["counters"] = (), ()
        assert before == after

    def test_preload_unknown_item_rejected(self, small_context):
        report = small_context.executor.apply(
            0.0, ActionPlan([PreloadItem("ghost")])
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "unknown-item"


class TestWriteDelayFlush:
    def _dirty_item(self, context: SimulationContext, item: str) -> None:
        context.executor.apply(
            0.0, ActionPlan([EnableWriteDelay((item,))])
        )
        context.controller.submit(
            *io_fields(LogicalIORecord(1.0, item, 0, 8192, IOType.WRITE))
        )

    def test_flush_item_with_dirty_data(self, small_context):
        self._dirty_item(small_context, "item-0")
        wd = small_context.cache.write_delay
        dirty = wd.dirty_bytes_of("item-0")
        assert dirty > 0
        report = small_context.executor.apply(
            2.0, ActionPlan([FlushItem("item-0")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.reason == ""
        assert record.cost_bytes == dirty
        assert wd.dirty_bytes_of("item-0") == 0
        assert wd.is_selected("item-0")  # flush-item keeps the selection

    def test_flush_item_with_zero_dirty_bytes(self, small_context):
        """Edge case: flushing an item with nothing buffered."""
        report = small_context.executor.apply(
            0.0, ActionPlan([FlushItem("item-0")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.reason == "no-dirty-data"
        assert record.cost_bytes == 0
        assert record.cost_seconds == 0.0
        assert record.completion == record.time

    def test_enable_write_delay_flushes_deselected(self, small_context):
        self._dirty_item(small_context, "item-0")
        dirty = small_context.cache.write_delay.dirty_bytes_of("item-0")
        report = small_context.executor.apply(
            2.0, ActionPlan([EnableWriteDelay(("item-1",))])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.cost_bytes == dirty
        assert small_context.cache.write_delay.selected_items() == {"item-1"}

    def test_flush_write_delay_drains_everything(self, small_context):
        self._dirty_item(small_context, "item-0")
        report = small_context.executor.apply(
            3.0, ActionPlan([FlushWriteDelay()])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.cost_bytes > 0
        assert small_context.cache.write_delay.dirty_pages == 0


class TestPowerOffGate:
    def test_disable_always_applies(self, small_context):
        enclosure = small_context.enclosures[0]
        report = small_context.executor.apply(
            0.0, ActionPlan([SetPowerOffEnabled(enclosure.name, False)])
        )
        assert report.records[0].outcome is ActionOutcome.APPLIED
        assert not enclosure.power_off_enabled

    def test_enable_passes_without_failures(self, small_context):
        enclosure = small_context.enclosures[0]
        report = small_context.executor.apply(
            0.0, ActionPlan([SetPowerOffEnabled(enclosure.name, True)])
        )
        assert report.records[0].outcome is ActionOutcome.APPLIED
        assert enclosure.power_off_enabled

    def test_degraded_mode_vetoes_and_arms_cooldown(
        self, small_context, config: EcoStorConfig
    ):
        executor = small_context.executor
        enclosure = small_context.enclosures[0]
        now = 100.0
        for _ in range(config.spin_up_failure_threshold):
            enclosure.spin_up_failure_times.append(now - 1.0)
        report = executor.apply(
            now, ActionPlan([SetPowerOffEnabled(enclosure.name, True)])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.VETOED_BY_DEGRADED_MODE
        assert record.reason == "degraded-mode"
        assert not enclosure.power_off_enabled
        assert executor.degraded_cooldowns == 1
        # Inside the cool-down the veto repeats without re-arming.
        again = executor.apply(
            now + 1.0, ActionPlan([SetPowerOffEnabled(enclosure.name, True)])
        )
        assert again.records[0].reason == "cooldown"
        assert executor.degraded_cooldowns == 1
        # After the cool-down (failures aged out) enablement passes.
        late = now + config.power_off_cooldown + config.spin_up_failure_window
        final = executor.apply(
            late, ActionPlan([SetPowerOffEnabled(enclosure.name, True)])
        )
        assert final.records[0].outcome is ActionOutcome.APPLIED


class TestChargeBlockMigration:
    def test_charge_counts_as_migration(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            0.0,
            ActionPlan(
                [ChargeBlockMigration("item-0", 8192, "enc-00", "enc-01")]
            ),
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.cost_bytes == 8192
        assert small_context.controller.migrated_bytes == 8192
        assert executor.migrations_applied == 1
        assert executor.migrated_bytes_applied == 8192

    def test_non_positive_size_rejected(self, small_context):
        report = small_context.executor.apply(
            0.0,
            ActionPlan([ChargeBlockMigration("item-0", 0, "enc-00", "enc-01")]),
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "non-positive-size"


class TestLogAndReport:
    def test_empty_plan_report(self, small_context):
        report = small_context.executor.apply(7.0, ActionPlan())
        assert report.records == ()
        assert report.moves_executed == report.moves_aborted == 0
        assert report.bytes_moved == 0
        assert small_context.executor.log == []

    def test_outcome_count(self, small_context):
        executor = small_context.executor
        report = executor.apply(
            0.0,
            ActionPlan(
                [UnpinItem("item-0"), MigrateItem("ghost", "enc-01")]
            ),
        )
        assert [r.outcome for r in report.records] == [
            ActionOutcome.APPLIED,
            ActionOutcome.REJECTED,
        ]
        assert executor.actions_applied == 1
        assert executor.actions_rejected == 1
        assert executor.actions_aborted == executor.actions_vetoed == 0


class TestPlacementPlanApply:
    def test_plan_reports_through_executor(self, small_context):
        executor = small_context.executor
        plan = ActionPlan(
            [MigrateItem("item-0", "enc-01"), MigrateItem("ghost", "enc-02")]
        )
        report = executor.apply(0.0, plan)
        assert report.moves_executed == 1
        assert report.bytes_moved == 64 * units.MB
        assert [record.reason for record in report.records] == [
            "",
            "unknown-item",
        ]
        assert len(executor.log) == 2
        assert small_context.controller.migration_count == 1
