"""Tests for fleet-wide tier-book aggregation and its conservation audit."""

from __future__ import annotations

import dataclasses

import pytest

from repro import units
from repro.actions.plan import ActionPlan
from repro.actions.records import ArchiveItem, PromoteItem
from repro.config import DEFAULT_CONFIG
from repro.errors import AuditError, ValidationError
from repro.fleet import audit_tier_books, merge_tier_reports
from repro.monitoring.tiers import TierBooks, TierReport
from repro.simulation import build_context


def array_reports(array_id, moves):
    """One tiered array's closing tier reports after ``moves``."""
    context = build_context(
        DEFAULT_CONFIG, 2, flash_count=1, archive_count=1, array_id=array_id
    )
    virt = context.virtualization
    virt.add_item("item-0", 64 * units.MB, f"vol/{array_id}:enc-00")
    virt.add_item("item-1", 32 * units.MB, f"vol/{array_id}:enc-01")
    context.require_executor().apply(0.0, ActionPlan(moves))
    return TierBooks(virt, context.controller).report()


class TestMergeTierReports:
    def test_merges_real_arrays_by_tier_name(self):
        first = array_reports("array-00", [PromoteItem("item-0", "flash")])
        second = array_reports("array-01", [ArchiveItem("item-1")])
        merged = merge_tier_reports([first, second])
        assert [row.tier for row in merged] == ["flash", "hdd", "archive"]
        by_name = {row.tier: row for row in merged}
        # Device lists concatenate in array order, namespaced names intact.
        assert by_name["flash"].devices == (
            "array-00:flash-00",
            "array-01:flash-00",
        )
        # Integer books are exact sums across arrays.
        assert by_name["flash"].used_bytes == 64 * units.MB
        assert by_name["archive"].used_bytes == 32 * units.MB
        assert by_name["hdd"].used_bytes == (64 + 32) * units.MB
        # The merged books pass their own conservation audit.
        checks = audit_tier_books(merged, [first, second])
        assert checks > 0

    def test_kind_mismatch_is_a_wiring_error(self):
        first = array_reports("array-00", [])
        impostor = [
            dataclasses.replace(first[0], kind="hdd"),
            *first[1:],
        ]
        with pytest.raises(ValidationError, match="appears as kind"):
            merge_tier_reports([first, impostor])


class TestAuditTierBooks:
    def test_broken_integer_book_raises(self):
        first = array_reports("array-00", [PromoteItem("item-0", "flash")])
        merged = merge_tier_reports([first])
        cooked = [
            dataclasses.replace(
                merged[0], bytes_in=merged[0].bytes_in + 1
            ),
            *merged[1:],
        ]
        with pytest.raises(AuditError, match="bytes_in book broken"):
            audit_tier_books(cooked, [first])

    def test_ledger_identity_checked_on_merged_rows(self):
        # A row whose per-array sums agree but whose ledger does not
        # cover its placed bytes is drift, not a merge bug — the audit
        # still refuses it.
        row = TierReport(
            tier="flash",
            kind="flash",
            devices=("flash-00",),
            capacity_bytes=units.GB,
            used_bytes=2 * units.MB,
            replica_bytes=0,
            bytes_in=units.MB,
            bytes_out=0,
            energy_joules=0.0,
            cost_units=1.0,
            service_seconds=0.0,
            serviced_ios=0,
        )
        with pytest.raises(AuditError):
            audit_tier_books([row], [[row]])
