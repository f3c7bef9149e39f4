"""Taxonomy tests for the inter-tier actions (ISSUE 10, satellite 3).

Every promote/demote/archive/replicate outcome the executor can
produce is pinned here: applied moves with their cost books, the full
reject-reason taxonomy from ``_resolve_tier_target``, fault aborts via
a :class:`~repro.faults.plan.MigrationAbort` draw, the degraded-mode
cool-down veto, and JSON round-trips of the resulting records.
"""

from __future__ import annotations

import json

from repro import units
from repro.actions.plan import ActionPlan
from repro.actions.records import (
    ActionOutcome,
    ActionRecord,
    ArchiveItem,
    DemoteItem,
    PromoteItem,
    ReplicateItem,
)
from repro.faults.plan import FaultPlan, MigrationAbort
from repro.simulation import SimulationContext, build_context


def tiered_context(config, flash_count=1, archive_count=1, faults=None):
    """Two-HDD testbed with optional flash/archive tiers and two items."""
    context = build_context(
        config,
        2,
        flash_count=flash_count,
        archive_count=archive_count,
        faults=faults,
    )
    virt = context.virtualization
    virt.add_item("item-0", 64 * units.MB, "vol/enc-00")
    virt.add_item("item-1", 64 * units.MB, "vol/enc-01")
    return context


def books_snapshot(context: SimulationContext) -> dict:
    """Every book a tier move could change, tiers included."""
    virt = context.virtualization
    executor = context.executor
    return {
        "used": {n: virt.used_bytes(n) for n in virt.enclosure_names},
        "placement": {
            item: virt.enclosure_of(item).name
            for item in ("item-0", "item-1")
        },
        "replicas": {
            item: virt.replicas_of(item) for item in ("item-0", "item-1")
        },
        "ledger": (
            dict(virt.tier_ledger.bytes_in),
            dict(virt.tier_ledger.bytes_out),
        ),
        "migrated_bytes": context.controller.migrated_bytes,
        "migration_count": context.controller.migration_count,
        "log_len": len(executor.log),
        "counters": (
            executor.actions_applied,
            executor.actions_aborted,
            executor.actions_vetoed,
            executor.actions_rejected,
        ),
    }


class TestAppliedMoves:
    def test_promote_places_item_on_flash(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        assert record.cost_bytes == 64 * units.MB
        assert record.completion > record.time
        virt = context.virtualization
        assert virt.tier_of_item("item-0").name == "flash"
        assert virt.enclosure_of("item-0").name == "flash-00"

    def test_demote_and_archive_chain_on_migration_clock(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0,
            ActionPlan(
                [
                    DemoteItem("item-0", "archive"),
                    ArchiveItem("item-1"),
                ]
            ),
        )
        first, second = report.records
        assert first.outcome is ActionOutcome.APPLIED
        assert second.outcome is ActionOutcome.APPLIED
        assert second.time == first.completion
        virt = context.virtualization
        assert virt.tier_of_item("item-0").name == "archive"
        assert virt.tier_of_item("item-1").name == "archive"

    def test_replicate_keeps_primary_and_adds_replica(self, config):
        context = tiered_context(config)
        controller = context.controller
        migrations_before = controller.migration_count
        report = context.executor.apply(
            0.0, ActionPlan([ReplicateItem("item-0", "flash")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.APPLIED
        virt = context.virtualization
        # Primary placement untouched; the copy lands as a replica.
        assert virt.enclosure_of("item-0").name == "enc-00"
        assert virt.replicas_of("item-0") == ("flash-00",)
        # Replication books separately from migration counts.
        assert controller.migration_count == migrations_before


class TestRecordRoundTrip:
    def test_applied_tier_records_round_trip_through_json(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0,
            ActionPlan(
                [
                    PromoteItem("item-0", "flash"),
                    DemoteItem("item-0", "hdd"),
                    ArchiveItem("item-0"),
                    ReplicateItem("item-1", "flash"),
                ]
            ),
        )
        assert [r.outcome for r in report.records] == (
            [ActionOutcome.APPLIED] * 4
        )
        for record in report.records:
            data = json.loads(json.dumps(record.to_dict()))
            rebuilt = ActionRecord.from_dict(data)
            assert rebuilt == record
            assert type(rebuilt.action) is type(record.action)


class TestRejectTaxonomy:
    def test_unknown_item(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0, ActionPlan([PromoteItem("no-such-item", "flash")])
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "unknown-item"

    def test_unknown_tier(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0, ActionPlan([PromoteItem("item-0", "no-such-tier")])
        )
        assert report.records[0].reason == "unknown-tier"

    def test_not_a_promotion_and_not_a_demotion(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0,
            ActionPlan(
                [
                    # item-0 sits on HDD; archive ranks slower, flash faster.
                    PromoteItem("item-0", "archive"),
                    DemoteItem("item-1", "flash"),
                ]
            ),
        )
        assert [r.reason for r in report.records] == [
            "not-a-promotion",
            "not-a-demotion",
        ]
        assert all(
            r.outcome is ActionOutcome.REJECTED for r in report.records
        )

    def test_already_placed_same_tier(self, config):
        context = tiered_context(config)
        report = context.executor.apply(
            0.0,
            ActionPlan(
                [
                    DemoteItem("item-0", "hdd"),
                    ReplicateItem("item-1", "hdd"),
                ]
            ),
        )
        assert [r.reason for r in report.records] == [
            "already-placed",
            "already-placed",
        ]

    def test_no_archive_tier(self, config):
        context = tiered_context(config, archive_count=0)
        report = context.executor.apply(
            0.0, ActionPlan([ArchiveItem("item-0")])
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "no-archive-tier"

    def test_capacity_when_target_tier_is_full(self, config):
        context = tiered_context(config)
        virt = context.virtualization
        virt.add_item(
            "filler",
            config.flash_capacity_bytes - units.MB,
            "vol/flash-00",
        )
        report = context.executor.apply(
            0.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        assert report.records[0].outcome is ActionOutcome.REJECTED
        assert report.records[0].reason == "capacity"


class TestFaultAbort:
    def test_migration_abort_draws_on_tier_moves(self, config):
        plan = FaultPlan(events=(MigrationAbort(item_id="item-0"),))
        context = tiered_context(config, faults=plan)
        virt = context.virtualization
        before = books_snapshot(context)
        report = context.executor.apply(
            10.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.ABORTED_BY_FAULT
        assert record.reason == "migration-abort"
        # The abort rolls back mid-transfer: placement and every byte
        # book read as if the move was never attempted.
        assert virt.tier_of_item("item-0").name == "hdd"
        after = books_snapshot(context)
        assert after["used"] == before["used"]
        assert after["ledger"] == before["ledger"]
        # One-shot draw: the retry of the same move goes through.
        retry = context.executor.apply(
            20.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        assert retry.records[0].outcome is ActionOutcome.APPLIED
        assert virt.tier_of_item("item-0").name == "flash"


class TestDegradedModeVeto:
    def test_cooldown_on_resolved_target_vetoes_move(self, config):
        context = tiered_context(config)
        executor = context.executor
        # Simulate the degraded-mode gate having benched flash-00 (the
        # deterministic resolve target) after repeated spin-up faults.
        executor._cooldown_until["flash-00"] = 100.0
        report = executor.apply(
            50.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        record = report.records[0]
        assert record.outcome is ActionOutcome.VETOED_BY_DEGRADED_MODE
        assert record.reason == "cooldown"
        assert context.virtualization.tier_of_item("item-0").name == "hdd"
        # Past the window the same move applies.
        late = executor.apply(
            150.0, ActionPlan([PromoteItem("item-0", "flash")])
        )
        assert late.records[0].outcome is ActionOutcome.APPLIED
