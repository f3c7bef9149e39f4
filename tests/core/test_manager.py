"""Tests for repro.core.manager — Algorithm 1 end to end."""

import pytest

from repro import units
from repro.config import DEFAULT_CONFIG
from repro.actions.records import FlushItem, MigrateItem
from repro.core import manager as manager_module
from repro.core.hotcold import HotColdSplit
from repro.core.manager import EnergyEfficientPolicy
from repro.core.patterns import IOPattern
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer


def build_system(enclosures=4):
    context = build_context(DEFAULT_CONFIG, enclosures)
    return context


def place(context, item, size, enclosure_index):
    name = context.enclosure_names()[enclosure_index]
    context.virtualization.add_item(item, size, default_volume(name))
    context.app_monitor.register_item(item, default_volume(name))


def dense_trace(item, start, end, gap=20.0, read_ratio=0.6):
    """A P3-shaped stream: gaps below break-even."""
    records = []
    t = start
    toggle = 0
    while t < end:
        kind = IOType.READ if (toggle % 10) < read_ratio * 10 else IOType.WRITE
        records.append(LogicalIORecord(t, item, 0, 8192, kind))
        t += gap
        toggle += 1
    return records


def bursty_trace(item, start, end, burst_every=600.0, reads=5):
    """A P1-shaped stream: read bursts separated by long intervals."""
    records = []
    t = start
    while t < end:
        for k in range(reads):
            records.append(
                LogicalIORecord(t + k * 2.0, item, 0, 8192, IOType.READ)
            )
        t += burst_every
    return records


def run_manager(context, records, duration, **policy_kwargs):
    policy = EnergyEfficientPolicy(**policy_kwargs)
    replayer = TraceReplayer(context, policy)
    result = replayer.run(sorted(records), duration=duration)
    return policy, result


class TestManagementCycle:
    def test_runs_at_initial_period(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        records = dense_trace("hot", 0.0, 1200.0)
        policy, _ = run_manager(context, records, 1200.0)
        assert policy.snapshots
        assert policy.snapshots[0].time == pytest.approx(520.0)

    def test_determinations_counted(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        records = dense_trace("hot", 0.0, 1200.0)
        policy, result = run_manager(context, records, 1200.0)
        assert result.determinations == policy.determinations
        assert policy.determinations >= 2

    def test_patterns_recorded_in_snapshot(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        place(context, "quiet", 100 * units.MB, 1)
        records = dense_trace("hot", 0.0, 1200.0)
        policy, _ = run_manager(context, records, 1200.0)
        counts = policy.snapshots[0].pattern_counts
        assert counts[IOPattern.P3] == 1
        assert counts[IOPattern.P0] == 1


class TestHotColdControl:
    def test_cold_enclosures_get_power_off(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        place(context, "quiet", 100 * units.MB, 1)
        records = dense_trace("hot", 0.0, 1200.0)
        policy, _ = run_manager(context, records, 1200.0)
        split = policy.snapshots[-1]
        names = context.enclosure_names()
        hot_enclosures = set(split.hot)
        for enclosure in context.enclosures:
            if enclosure.name in hot_enclosures:
                assert not enclosure.power_off_enabled
            else:
                assert enclosure.power_off_enabled

    def test_quiet_system_everything_cold(self):
        context = build_system()
        place(context, "quiet", 100 * units.MB, 0)
        records = bursty_trace("quiet", 10.0, 2000.0)
        policy, _ = run_manager(context, records, 2000.0)
        assert policy.snapshots[-1].hot == ()

    def test_p3_consolidation_migrates(self):
        context = build_system()
        for index in range(4):
            place(context, f"hot-{index}", 100 * units.MB, index)
        records = []
        for index in range(4):
            records += dense_trace(f"hot-{index}", index * 1.0, 2000.0, gap=30.0)
        policy, result = run_manager(context, records, 2000.0)
        # ~0.13 IOPS of P3 fits one hot enclosure: items consolidate.
        assert result.migrated_bytes > 0
        split = policy.snapshots[-1]
        assert len(split.hot) < 4


    def test_evacuations_apply_before_consolidation(self, monkeypatch):
        """Flushes keep decision order; moves run evacuations first (§V-A)."""
        context = build_system()
        for index, item in enumerate(("a", "b", "c")):
            place(context, item, units.MB, index)
        moves = [
            MigrateItem("a", "enc-03"),
            MigrateItem("b", "enc-03", evacuation=True),
            MigrateItem("c", "enc-03"),
        ]
        split = HotColdSplit(
            hot=("enc-03",),
            cold=("enc-00", "enc-01", "enc-02"),
            i_max=0.0,
            n_hot=1,
        )
        monkeypatch.setattr(
            manager_module,
            "determine_placement",
            lambda *args, **kwargs: (split, moves),
        )
        run_manager(context, dense_trace("a", 0.0, 600.0), 600.0)
        applied = [
            record.action
            for record in context.executor.log
            if isinstance(record.action, (FlushItem, MigrateItem))
        ]
        assert applied[:6] == [
            FlushItem("a"),
            FlushItem("b"),
            FlushItem("c"),
            moves[1],
            moves[0],
            moves[2],
        ]


class TestCacheControl:
    def test_preload_of_cold_p1(self):
        context = build_system()
        place(context, "reader", 10 * units.MB, 0)
        place(context, "hot", 100 * units.MB, 1)
        records = bursty_trace("reader", 10.0, 2000.0)
        records += dense_trace("hot", 0.0, 2000.0)
        policy, _ = run_manager(context, records, 2000.0)
        assert context.cache.preload.is_pinned("reader")

    def test_write_delay_of_cold_p2(self):
        context = build_system()
        place(context, "writer", 10 * units.MB, 0)
        place(context, "hot", 100 * units.MB, 1)
        writes = []
        t = 10.0
        while t < 2000.0:
            for k in range(6):
                writes.append(
                    LogicalIORecord(
                        t + k, "writer", k * 8192, 8192, IOType.WRITE
                    )
                )
            t += 300.0  # a write burst lands in every monitoring window
        records = writes + dense_trace("hot", 0.0, 2000.0)
        policy, _ = run_manager(context, records, 2000.0)
        assert context.cache.write_delay.is_selected("writer")
        assert any(s.write_delay_items > 0 for s in policy.snapshots)

    def test_ablation_flags_disable_mechanisms(self):
        context = build_system()
        place(context, "reader", 10 * units.MB, 0)
        place(context, "hot", 100 * units.MB, 1)
        records = bursty_trace("reader", 10.0, 2000.0)
        records += dense_trace("hot", 0.0, 2000.0)
        policy, result = run_manager(
            context,
            records,
            2000.0,
            enable_preload=False,
            enable_write_delay=False,
            enable_migration=False,
        )
        assert not context.cache.preload.item_ids()
        assert not context.cache.write_delay.selected_items()
        assert result.migrated_bytes == 0


class TestAdaptivePeriod:
    def test_period_never_drops_below_initial(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        records = dense_trace("hot", 0.0, 3000.0)
        policy, _ = run_manager(context, records, 3000.0)
        for snapshot in policy.snapshots:
            assert snapshot.next_period >= DEFAULT_CONFIG.initial_monitoring_period

    def test_fixed_period_ablation(self):
        context = build_system()
        place(context, "quiet", 100 * units.MB, 0)
        records = bursty_trace("quiet", 10.0, 3000.0, burst_every=2500.0)
        policy, _ = run_manager(
            context, records, 3000.0, adaptive_period=False
        )
        periods = {s.next_period for s in policy.snapshots}
        assert periods == {DEFAULT_CONFIG.initial_monitoring_period}

    def test_adaptive_period_grows_with_long_intervals(self):
        context = build_system()
        place(context, "quiet", 100 * units.MB, 0)
        # One burst only: the whole remaining window is a long interval.
        records = bursty_trace("quiet", 10.0, 500.0, burst_every=10_000.0)
        policy, _ = run_manager(context, records, 3000.0)
        assert policy.snapshots[-1].next_period > (
            DEFAULT_CONFIG.initial_monitoring_period
        )


class TestResilience:
    def test_empty_trace_is_fine(self):
        context = build_system()
        place(context, "quiet", 100 * units.MB, 0)
        policy, result = run_manager(context, [], 1200.0)
        assert result.io_count == 0
        assert policy.determinations >= 1

    def test_zero_length_window_skipped(self):
        context = build_system()
        place(context, "hot", 100 * units.MB, 0)
        policy = EnergyEfficientPolicy()
        policy.bind(context)
        policy.on_start(0.0)
        context.app_monitor.begin_window(100.0)
        policy.on_checkpoint(100.0)  # window length zero: no-op
        assert policy.snapshots == []
