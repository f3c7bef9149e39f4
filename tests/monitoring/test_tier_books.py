"""Tests for the per-tier energy/capacity/latency books."""

from __future__ import annotations

import json

import pytest

from repro import units
from repro.actions.plan import ActionPlan
from repro.actions.records import ArchiveItem, PromoteItem, ReplicateItem
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.errors import ValidationError
from repro.experiments.runner import run_on_context
from repro.experiments.testbed import build_workload
from repro.monitoring.tiers import TierBooks, TierReport
from repro.simulation import build_context


def make_report(**overrides) -> TierReport:
    values = dict(
        tier="flash",
        kind="flash",
        devices=("flash-00", "flash-01"),
        capacity_bytes=units.GB,
        used_bytes=256 * units.MB,
        replica_bytes=64 * units.MB,
        bytes_in=512 * units.MB,
        bytes_out=192 * units.MB,
        energy_joules=1234.5,
        cost_units=0.1 + 0.2,  # deliberately non-representable
        service_seconds=42.25,
        serviced_ios=1000,
    )
    values.update(overrides)
    return TierReport(**values)


def tiered_context():
    """Two HDDs plus one flash and one archive device."""
    return build_context(DEFAULT_CONFIG, 2, flash_count=1, archive_count=1)


class TestTierReport:
    def test_round_trip_exact_through_json(self):
        report = make_report()
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = TierReport.from_dict(data)
        assert rebuilt == report
        assert rebuilt.cost_units == report.cost_units

    def test_dict_carries_derived_fields(self):
        data = make_report().to_dict()
        assert data["placed_bytes"] == (256 + 64) * units.MB
        assert data["net_bytes"] == (512 - 192) * units.MB
        assert data["mean_service_seconds"] == 42.25 / 1000

    def test_mean_service_of_idle_tier_is_zero(self):
        idle = make_report(service_seconds=0.0, serviced_ios=0)
        assert idle.mean_service_seconds == 0.0


class TestTierBooks:
    def test_rejects_controller_of_other_virtualization(self):
        one = tiered_context()
        other = tiered_context()
        with pytest.raises(ValidationError):
            TierBooks(one.virtualization, other.controller)

    def test_reports_project_the_storage_books(self):
        context = tiered_context()
        virt = context.virtualization
        size = 64 * units.MB
        virt.add_item("item-0", size, "vol/enc-00")
        virt.add_item("item-1", size, "vol/enc-01")
        context.executor.apply(
            0.0,
            ActionPlan(
                [
                    PromoteItem("item-0", "flash"),
                    ArchiveItem("item-1"),
                    ReplicateItem("item-0", "hdd"),
                ]
            ),
        )
        reports = TierBooks(virt, context.controller).report()
        # Fastest tier first.
        assert [r.tier for r in reports] == ["flash", "hdd", "archive"]
        flash, hdd, archive = reports
        assert flash.used_bytes == size
        assert flash.bytes_in == size
        assert archive.used_bytes == size
        assert hdd.used_bytes == 0
        # The flash primary's HDD replica books next to, not inside,
        # the HDD tier's used bytes — and costs HDD capacity.
        assert hdd.replica_bytes == size
        assert hdd.placed_bytes == size
        assert hdd.cost_units > 0
        # Both items entered and left the HDD tier.
        assert hdd.bytes_out == 2 * size
        # The ledger identity every row must satisfy.
        for report in reports:
            assert report.net_bytes == report.placed_bytes

    def test_hdd_only_run_keeps_service_books(self):
        workload = build_workload("tpcc", False)
        context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
        run_on_context(context, workload, NoPowerSavingPolicy())
        controller = context.controller
        (hdd,) = TierBooks(context.virtualization, controller).report()
        assert hdd.tier == "hdd"
        assert hdd.serviced_ios > 0
        assert hdd.serviced_ios == (
            controller.logical_io_count - controller.cache_hit_count
        )
        assert hdd.service_seconds > 0.0

    def test_capacity_cost_orders_by_technology(self):
        context = tiered_context()
        virt = context.virtualization
        size = 64 * units.MB
        virt.add_item("on-hdd", size, "vol/enc-00")
        virt.add_item("on-flash", size, "vol/flash-00")
        virt.add_item("on-archive", size, "vol/arc-00")
        reports = {
            r.tier: r
            for r in TierBooks(virt, context.controller).report()
        }
        # Same bytes, very different bills.
        assert (
            reports["flash"].cost_units
            > reports["hdd"].cost_units
            > reports["archive"].cost_units
        )
