"""Tests for repro.storage.migration."""

import pytest

from repro import units
from repro.actions.executor import ActionExecutor
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.migration import Move, PlacementPlan
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


class TestPlacementPlan:
    def test_empty_plan_is_falsy(self):
        assert not PlacementPlan()

    def test_add_and_len(self):
        plan = PlacementPlan()
        plan.add("a", "e1")
        plan.add("b", "e2", evacuation=True)
        assert len(plan) == 2

    def test_ordered_puts_evacuations_first(self):
        plan = PlacementPlan()
        plan.add("late", "e1")
        plan.add("evac", "e2", evacuation=True)
        ordered = plan.ordered()
        assert ordered[0].item_id == "evac"
        assert ordered[1].item_id == "late"

    def test_ordered_preserves_within_class_order(self):
        plan = PlacementPlan()
        plan.add("a", "e1")
        plan.add("b", "e1")
        assert [m.item_id for m in plan.ordered()] == ["a", "b"]


class TestPlanThroughExecutor:
    """A placement plan applied as migrate actions, reported by ``ApplyReport``."""

    def test_executes_moves_and_reports(self):
        executor, virt = build_executor()
        plan = PlacementPlan()
        plan.add("item-0", "e1")
        plan.add("item-1", "e2")
        report = executor.apply(100.0, plan.as_actions())
        assert report.moves_executed == 2
        assert report.bytes_moved == 20 * units.MB
        assert virt.enclosure_of("item-0").name == "e1"
        assert virt.enclosure_of("item-1").name == "e2"

    def test_moves_are_serialized(self):
        executor, _ = build_executor()
        plan = PlacementPlan()
        plan.add("item-0", "e1")
        plan.add("item-1", "e1")
        report = executor.apply(0.0, plan.as_actions())
        per_item = 10 * units.MB / executor.controller.migration_throughput_bps
        assert report.migration_clock - report.started_at == pytest.approx(
            2 * per_item
        )

    def test_skips_items_already_on_target(self):
        executor, _ = build_executor()
        plan = PlacementPlan()
        plan.add("item-0", "e0")
        report = executor.apply(0.0, plan.as_actions())
        assert report.moves_executed == 0
        assert report.bytes_moved == 0

    def test_skips_unknown_items(self):
        executor, _ = build_executor()
        plan = PlacementPlan()
        plan.add("ghost", "e1")
        report = executor.apply(0.0, plan.as_actions())
        assert report.moves_executed == 0

    def test_totals_accumulate_across_plans(self):
        executor, _ = build_executor()
        for target in ("e1", "e2"):
            plan = PlacementPlan()
            plan.add("item-0", target)
            executor.apply(0.0, plan.as_actions())
        assert executor.controller.migration_count == 2
        assert executor.controller.migrated_bytes == 20 * units.MB

    def test_empty_plan_report(self):
        executor, _ = build_executor()
        report = executor.apply(5.0, PlacementPlan().as_actions())
        assert report.moves_executed == 0
        assert report.started_at == report.migration_clock == 5.0


class TestMove:
    def test_move_is_frozen(self):
        move = Move("a", "e1")
        with pytest.raises(AttributeError):
            move.item_id = "b"  # type: ignore[misc]
