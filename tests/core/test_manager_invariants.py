"""Post-run invariants of the manager's visible state."""

import pytest

from repro import units
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer
from repro.workloads import build_oltp_workload


@pytest.fixture(scope="module")
def completed_run():
    workload = build_oltp_workload(duration=2600.0)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    workload.install(context)
    policy = EnergyEfficientPolicy()
    result = TraceReplayer(context, policy).run(
        workload.records, duration=workload.duration
    )
    return context, policy, result


class TestManagerInvariants:
    def test_hot_cold_partition(self, completed_run):
        context, policy, _ = completed_run
        for snapshot in policy.snapshots:
            hot, cold = set(snapshot.hot), set(snapshot.cold)
            assert hot | cold == set(context.enclosure_names())
            assert not hot & cold

    def test_power_off_enabled_iff_cold(self, completed_run):
        context, policy, _ = completed_run
        final = policy.snapshots[-1]
        for enclosure in context.enclosures:
            if enclosure.name in final.cold:
                assert enclosure.power_off_enabled, enclosure.name
            else:
                assert not enclosure.power_off_enabled, enclosure.name

    def test_hot_enclosures_never_spun_down(self, completed_run):
        context, policy, _ = completed_run
        stable_hot = set(policy.snapshots[0].hot)
        for snapshot in policy.snapshots:
            stable_hot &= set(snapshot.hot)
        for enclosure in context.enclosures:
            if enclosure.name in stable_hot:
                assert enclosure.spin_down_count == 0, enclosure.name

    def test_preload_budget_respected(self, completed_run):
        context, _, _ = completed_run
        preload = context.cache.preload
        assert preload.used_bytes <= preload.capacity_bytes

    def test_preloaded_items_live_on_cold_or_were_kept(self, completed_run):
        context, policy, _ = completed_run
        final_cold = set(policy.snapshots[-1].cold)
        for item in context.cache.preload.item_ids():
            enclosure = context.virtualization.enclosure_of(item).name
            assert enclosure in final_cold, item

    def test_pattern_counts_cover_all_items(self, completed_run):
        context, policy, _ = completed_run
        item_count = len(context.virtualization.item_ids())
        for snapshot in policy.snapshots:
            assert sum(snapshot.pattern_counts.values()) == item_count

    def test_snapshots_strictly_ordered_in_time(self, completed_run):
        _, policy, _ = completed_run
        times = [snapshot.time for snapshot in policy.snapshots]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_determinations_equal_snapshots(self, completed_run):
        _, policy, result = completed_run
        assert policy.determinations == len(policy.snapshots)
        assert result.determinations == policy.determinations

    def test_migrated_items_remain_resolvable(self, completed_run):
        context, _, _ = completed_run
        virtualization = context.virtualization
        for item in virtualization.item_ids():
            _, name, _ = virtualization.route(item)
            assert name in virtualization.enclosure_names
            assert name == virtualization.enclosure_of(item).name
