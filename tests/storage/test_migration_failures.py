"""Failure-injection tests: migration under capacity pressure."""

import pytest

from repro import units
from repro.actions.executor import ActionExecutor, ApplyReport
from repro.actions.plan import ActionPlan
from repro.actions.records import ActionOutcome, MigrateItem
from repro.errors import CapacityError
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.virtualization import BlockVirtualization


def capacity_skips(report: ApplyReport) -> int:
    """Moves the executor rejected because the target could not hold them."""
    return sum(
        1
        for record in report.records
        if record.outcome is ActionOutcome.REJECTED
        and record.reason == "capacity"
    )


def build(capacity=100 * units.MB):
    encs = [
        DiskEnclosure(f"e{i}", capacity_bytes=capacity) for i in range(3)
    ]
    virt = BlockVirtualization(encs)
    for i in range(3):
        virt.create_volume(f"v{i}", f"e{i}")
    controller = StorageController(virt, StorageCache())
    return ActionExecutor(controller), virt, controller


class TestCapacityPressure:
    def test_migrate_item_precheck_raises_before_charging(self):
        executor, virt, controller = build()
        virt.add_item("a", 80 * units.MB, "v0")
        virt.add_item("b", 80 * units.MB, "v1")
        src = virt.enclosure("e0")
        energy_before = src.energy_joules()
        with pytest.raises(CapacityError):
            controller.migrate_item(10.0, "a", "e1")
        # The failed move charged nothing and moved nothing.
        assert controller.migrated_bytes == 0
        assert src.energy_joules() == energy_before
        assert virt.enclosure_of("a").name == "e0"

    def test_engine_skips_infeasible_moves_and_continues(self):
        executor, virt, _ = build()
        virt.add_item("a", 80 * units.MB, "v0")
        virt.add_item("b", 80 * units.MB, "v1")
        virt.add_item("c", 10 * units.MB, "v0")
        plan = ActionPlan(
            [
                MigrateItem("a", "e1"),  # cannot fit (b occupies e1)
                MigrateItem("c", "e2"),  # fits
            ]
        )
        report = executor.apply(0.0, plan)
        assert capacity_skips(report) == 1
        assert report.moves_executed == 1
        assert virt.enclosure_of("a").name == "e0"
        assert virt.enclosure_of("c").name == "e2"

    def test_skipped_moves_do_not_count_bytes(self):
        executor, virt, _ = build()
        virt.add_item("a", 80 * units.MB, "v0")
        virt.add_item("b", 80 * units.MB, "v1")
        report = executor.apply(0.0, ActionPlan([MigrateItem("a", "e1")]))
        assert report.bytes_moved == 0
        assert executor.controller.migrated_bytes == 0

    def test_sequential_dependent_moves(self):
        # Move b away first, then a fits: plan order matters and the
        # executor honours it.
        executor, virt, _ = build()
        virt.add_item("a", 80 * units.MB, "v0")
        virt.add_item("b", 80 * units.MB, "v1")
        plan = ActionPlan(
            [
                MigrateItem("b", "e2", evacuation=True),  # executes first
                MigrateItem("a", "e1"),
            ]
        )
        report = executor.apply(0.0, plan)
        assert capacity_skips(report) == 0
        assert virt.enclosure_of("a").name == "e1"
        assert virt.enclosure_of("b").name == "e2"
