"""Data-item moves applied as migrate actions through the executor."""

import pytest

from repro import units
from repro.actions.executor import ActionExecutor
from repro.actions.plan import ActionPlan
from repro.actions.records import MigrateItem
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.virtualization import BlockVirtualization


def build_executor(items=3):
    encs = [
        DiskEnclosure(f"e{i}", capacity_bytes=10 * units.GB) for i in range(3)
    ]
    virt = BlockVirtualization(encs)
    for i in range(3):
        virt.create_volume(f"v{i}", f"e{i}")
    for k in range(items):
        virt.add_item(f"item-{k}", 10 * units.MB, "v0")
    controller = StorageController(virt, StorageCache())
    return ActionExecutor(controller), virt


class TestPlanThroughExecutor:
    """Moves applied as migrate actions, reported by ``ApplyReport``."""

    def test_executes_moves_and_reports(self):
        executor, virt = build_executor()
        plan = ActionPlan(
            [MigrateItem("item-0", "e1"), MigrateItem("item-1", "e2")]
        )
        report = executor.apply(100.0, plan)
        assert report.moves_executed == 2
        assert report.bytes_moved == 20 * units.MB
        assert virt.enclosure_of("item-0").name == "e1"
        assert virt.enclosure_of("item-1").name == "e2"

    def test_moves_are_serialized(self):
        executor, _ = build_executor()
        plan = ActionPlan(
            [MigrateItem("item-0", "e1"), MigrateItem("item-1", "e1")]
        )
        report = executor.apply(0.0, plan)
        per_item = 10 * units.MB / executor.controller.migration_throughput_bps
        first, second = report.records
        assert second.time == first.completion
        assert second.completion == pytest.approx(2 * per_item)

    def test_skips_items_already_on_target(self):
        executor, _ = build_executor()
        report = executor.apply(0.0, ActionPlan([MigrateItem("item-0", "e0")]))
        assert report.moves_executed == 0
        assert report.bytes_moved == 0

    def test_skips_unknown_items(self):
        executor, _ = build_executor()
        report = executor.apply(0.0, ActionPlan([MigrateItem("ghost", "e1")]))
        assert report.moves_executed == 0

    def test_totals_accumulate_across_plans(self):
        executor, _ = build_executor()
        for target in ("e1", "e2"):
            executor.apply(0.0, ActionPlan([MigrateItem("item-0", target)]))
        assert executor.controller.migration_count == 2
        assert executor.controller.migrated_bytes == 20 * units.MB

    def test_empty_plan_report(self):
        executor, _ = build_executor()
        report = executor.apply(5.0, ActionPlan())
        assert report.moves_executed == 0
        assert report.records == ()
