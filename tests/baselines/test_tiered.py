"""Tests for the temperature-driven tiered lifecycle policy."""

from __future__ import annotations

import dataclasses

from repro import units
from repro.baselines.tiered import TieredLifecyclePolicy
from repro.config import DEFAULT_CONFIG
from repro.experiments.runner import run_on_context
from repro.experiments.testbed import build_workload
from repro.monitoring.tiers import TierBooks
from repro.simulation import build_context


def lifecycle_config(**overrides):
    """DEFAULT_CONFIG with thresholds tuned so a handful of synthetic
    accesses walks an item through the whole HOT→COLD→FROZEN ladder."""
    values = dict(
        tier_monitoring_period=600.0,
        tier_half_life=60.0,
        tier_hot_temperature=4.0,
        tier_cold_temperature=1.0,
        tier_frozen_periods=2,
    )
    values.update(overrides)
    return dataclasses.replace(DEFAULT_CONFIG, **values)


def build_system(config, items=2):
    context = build_context(config, 2, flash_count=1, archive_count=1)
    for index in range(items):
        context.virtualization.add_item(
            f"item-{index}", 64 * units.MB, f"vol/enc-{index % 2:02d}"
        )
    return context


def bound_policy(context, **kwargs):
    policy = TieredLifecyclePolicy(**kwargs)
    policy.bind(context)
    policy.on_start(0.0)
    return policy


def touch(policy, item, count, at=0.0):
    for _ in range(count):
        policy.after_io(at, item, 0, 4096, True, False, 0.001)


class TestConfiguration:
    def test_period_and_half_life_default_from_config(self):
        context = build_system(lifecycle_config())
        policy = bound_policy(context)
        assert policy.monitoring_period == 600.0
        assert policy.half_life == 60.0
        assert policy.next_checkpoint() == 600.0

    def test_archive_shelf_armed_for_power_off_on_start(self):
        context = build_system(lifecycle_config())
        bound_policy(context)
        virt = context.virtualization
        assert virt.enclosure("arc-00").power_off_enabled
        assert not virt.enclosure("flash-00").power_off_enabled


class TestLifecycleLadder:
    def test_hot_item_promotes_to_flash(self):
        context = build_system(lifecycle_config())
        policy = bound_policy(context)
        touch(policy, "item-0", 10)
        plan = policy.on_checkpoint(600.0)
        assert plan is not None
        assert context.virtualization.tier_of_item("item-0").name == "flash"
        # item-1 saw nothing; it stays on HDD.
        assert context.virtualization.tier_of_item("item-1").name == "hdd"

    def test_cooled_item_demotes_back_to_hdd(self):
        context = build_system(lifecycle_config())
        policy = bound_policy(context)
        touch(policy, "item-0", 10)
        policy.on_checkpoint(600.0)
        # A silent window: the 60 s half-life erodes the temperature
        # far below cold over the 600 s period.
        policy.on_checkpoint(1200.0)
        assert context.virtualization.tier_of_item("item-0").name == "hdd"

    def test_frozen_needs_consecutive_cold_windows(self):
        context = build_system(lifecycle_config(tier_frozen_periods=2))
        policy = bound_policy(context)
        touch(policy, "item-0", 10)
        policy.on_checkpoint(600.0)
        policy.on_checkpoint(1200.0)  # COLD streak 1 → demote, not archive
        virt = context.virtualization
        assert virt.tier_of_item("item-0").name == "hdd"
        policy.on_checkpoint(1800.0)  # COLD streak 2 → FROZEN → archive
        assert virt.tier_of_item("item-0").name == "archive"

    def test_warm_access_resets_the_cold_streak(self):
        context = build_system(lifecycle_config(tier_frozen_periods=2))
        policy = bound_policy(context)
        touch(policy, "item-0", 10)
        policy.on_checkpoint(600.0)
        policy.on_checkpoint(1200.0)  # streak 1
        touch(policy, "item-0", 2, at=1500.0)  # WARM again
        policy.on_checkpoint(1800.0)  # streak resets
        policy.on_checkpoint(2400.0)  # streak 1 again — still not frozen
        assert context.virtualization.tier_of_item("item-0").name == "hdd"

    def test_replicate_hot_keeps_an_hdd_copy_of_the_hottest(self):
        context = build_system(lifecycle_config())
        policy = bound_policy(context, replicate_hot=True)
        touch(policy, "item-0", 10)
        policy.on_checkpoint(600.0)
        virt = context.virtualization
        # First checkpoint promoted it; the replica is planned once the
        # item is flash-resident, at the next hot classification.
        assert virt.tier_of_item("item-0").name == "flash"
        assert virt.replicas_of("item-0") == ()
        touch(policy, "item-0", 10, at=900.0)
        policy.on_checkpoint(1200.0)
        assert virt.tier_of_item("item-0").name == "flash"
        assert len(virt.replicas_of("item-0")) == 1
        replica_device = virt.replicas_of("item-0")[0]
        assert virt.tier_of_device(replica_device).name == "hdd"


def audited_smoke(workload_name, policy):
    """Replay a smoke workload audited on a flash+HDD+archive testbed;
    returns the result and the closing per-tier reports."""
    workload = build_workload(workload_name, False)
    context = build_context(
        DEFAULT_CONFIG, workload.enclosure_count, flash_count=1, archive_count=1
    )
    result = run_on_context(context, workload, policy, audit=True)
    return result, TierBooks(context.virtualization, context.controller).report()


class TestEndToEnd:
    def test_fileserver_smoke_with_auditor(self):
        result, reports = audited_smoke("fileserver", TieredLifecyclePolicy())
        assert result.audit_checks > 0
        assert result.replay.io_count > 0
        assert sum(report.energy_joules for report in reports) > 0
        assert sum(report.cost_units for report in reports) > 0
        by_name = {report.tier: report for report in reports}
        assert set(by_name) == {"flash", "hdd", "archive"}
        # Data actually moved through the lifecycle...
        assert by_name["flash"].bytes_in > 0
        # ...and every tier's ledger identity holds at end of run.
        for report in reports:
            assert report.net_bytes == report.placed_bytes

    def test_tpcc_smoke_with_auditor_and_replication(self):
        result, reports = audited_smoke(
            "tpcc", TieredLifecyclePolicy(replicate_hot=True)
        )
        assert result.audit_checks > 0
        for report in reports:
            assert report.net_bytes == report.placed_bytes

    def test_tpcc_smoke_default_lifecycle(self):
        # The default lifecycle policy on flash 1 / archive 1 replays the
        # whole TPC-C smoke trace audited.
        result, reports = audited_smoke("tpcc", TieredLifecyclePolicy())
        assert result.replay.io_count > 0
        assert result.audit_checks > 0
        for report in reports:
            assert report.net_bytes == report.placed_bytes
