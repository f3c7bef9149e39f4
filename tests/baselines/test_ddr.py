"""Tests for the DDR baseline."""

from dataclasses import replace

import pytest

from repro import units
from repro.actions.executor import ActionExecutor
from repro.actions.records import ActionOutcome, SetPowerOffEnabled
from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.faults.plan import FaultPlan, SpinUpFailure
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord, PhysicalIORecord
from repro.trace.replay import TraceReplayer


def build_system(enclosures=3, item_size=4 * units.GB):
    context = build_context(DEFAULT_CONFIG, enclosures)
    names = context.enclosure_names()
    for e in range(enclosures):
        item = f"item-{e}"
        context.virtualization.add_item(
            item, item_size, default_volume(names[e])
        )
        context.app_monitor.register_item(item, default_volume(names[e]))
    return context


def stream(item, start, end, gap):
    """Physical traffic: rotating offsets defeat the read cache (DDR
    judges enclosures by their *physical* IOPS)."""
    t = start
    offset = 0
    records = []
    while t < end:
        records.append(LogicalIORecord(t, item, offset, 4096, IOType.READ))
        offset = (offset + 512 * 1024) % (4 * units.GB - units.MB)
        t += gap
    return records


class TestDDRConfiguration:
    def test_defaults_from_config(self, small_context):
        policy = DDRPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert policy.monitoring_period == DEFAULT_CONFIG.ddr_monitoring_period
        assert policy.target_th == DEFAULT_CONFIG.ddr_target_th
        assert policy.low_th == DEFAULT_CONFIG.ddr_target_th / 2

    def test_nothing_cold_at_start(self, small_context):
        policy = DDRPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert not any(e.power_off_enabled for e in small_context.enclosures)

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            DDRPolicy(iops_smoothing_seconds=0.0)


class TestDDRBehaviour:
    def test_sub_second_determination_count(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=0.25)
        records = stream("item-0", 0.0, 10.0, gap=1.0)
        result = TraceReplayer(context, policy).run(records, duration=10.0)
        assert result.determinations == 40

    def test_busy_enclosures_never_marked_cold(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=10.0)
        # 1 IOPS on every enclosure, far above LowTH (0.25).
        records = []
        for e in range(3):
            records += stream(f"item-{e}", 0.1 * e, 300.0, gap=1.0)
        result = TraceReplayer(context, policy).run(
            sorted(records), duration=300.0
        )
        assert result.spin_down_count == 0
        assert result.migrated_bytes == 0

    def test_idle_enclosure_marked_cold_and_spins_down(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=10.0)
        # Only enclosure 0 busy; 1 and 2 silent -> cold -> off.
        records = stream("item-0", 0.0, 600.0, gap=1.0)
        result = TraceReplayer(context, policy).run(records, duration=600.0)
        assert result.spin_down_count >= 2

    def test_access_to_cold_enclosure_migrates_blocks(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=5.0)
        # Enclosure 1 quiet for a long time, then accessed.
        records = stream("item-0", 0.0, 400.0, gap=1.0)
        records.append(
            LogicalIORecord(300.0, "item-1", 0, 8192, IOType.READ)
        )
        result = TraceReplayer(context, policy).run(
            sorted(records), duration=400.0
        )
        assert policy.blocks_migrated >= 1
        assert result.migrated_bytes >= 8192

    def test_no_block_migration_without_hot_targets(self):
        # Single enclosure: even if cold, there is nowhere to migrate.
        context = build_context(DEFAULT_CONFIG, 1)
        context.virtualization.add_item(
            "only", units.MB, default_volume("enc-00")
        )
        context.app_monitor.register_item("only", default_volume("enc-00"))
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=5.0)
        records = [
            LogicalIORecord(200.0, "only", 0, 4096, IOType.READ),
        ]
        result = TraceReplayer(context, policy).run(records, duration=300.0)
        assert policy.blocks_migrated == 0

    def test_smoothing_resists_momentary_quiet(self):
        context = build_system()
        policy = DDRPolicy(monitoring_period=0.5, iops_smoothing_seconds=60.0)
        policy.bind(context)
        policy.on_start(0.0)
        # Simulate sustained traffic then one quiet window.
        monitor = context.storage_monitor
        clock = 0.0
        for _ in range(200):
            clock += 0.5
            monitor.on_physical(
                PhysicalIORecord(clock, "enc-00", 0, 1, IOType.READ)
            )
            policy.on_checkpoint(clock)
        assert "enc-00" not in policy._cold
        # One empty window barely dents the smoothed estimate.
        clock += 0.5
        policy.on_checkpoint(clock)
        assert "enc-00" not in policy._cold


def started_policy(context, **kwargs):
    policy = DDRPolicy(**kwargs)
    policy.bind(context)
    policy.on_start(0.0)
    context.storage_monitor.begin_window(0.0)
    return policy


def post(monitor, t, enclosure, count):
    if count:
        monitor.on_physical(PhysicalIORecord(t, enclosure, 0, count, IOType.READ))


class TestDDRRecurrence:
    """The smoothing recurrence s_k = (1-a)*s_{k-1} + a*n_k/w, exactly."""

    # period w = 0.5 s, smoothing 2 s -> alpha = 0.25; LowTH = 8 / 2 = 4.
    COUNTS = {
        "enc-00": (1, 10, 10),  # iops 2, 20, 20: cold, then hot from k=2
        "enc-01": (0, 0, 0),  # silent: cold throughout
        "enc-02": (12, 0, 0),  # iops 24, 0, 0: hot until k=3
    }
    # Dyadic values, exact in binary floating point.
    EXPECTED = {
        "enc-00": (0.5, 5.375, 9.03125),
        "enc-01": (0.0, 0.0, 0.0),
        "enc-02": (6.0, 4.5, 3.375),
    }
    COLD_AFTER = (
        {"enc-00", "enc-01"},
        {"enc-01"},
        {"enc-01", "enc-02"},
    )

    def test_smoothed_iops_match_hand_oracle_exactly(self):
        context = build_context(DEFAULT_CONFIG, 3)
        period, alpha = 0.5, 0.25
        policy = started_policy(
            context,
            monitoring_period=period,
            target_th=8.0,
            iops_smoothing_seconds=2.0,
        )
        oracle = dict.fromkeys(self.COUNTS, 0.0)
        for k in range(3):
            now = (k + 1) * period
            for name, counts in self.COUNTS.items():
                post(context.storage_monitor, now - period / 2, name, counts[k])
            policy.on_checkpoint(now)
            for name, counts in self.COUNTS.items():
                oracle[name] = (1 - alpha) * oracle[name] + alpha * (
                    counts[k] / period
                )
                assert policy._smoothed_iops[name] == oracle[name]
                assert policy._smoothed_iops[name] == self.EXPECTED[name][k]
            assert policy._cold == self.COLD_AFTER[k]
            enabled = {
                e.name for e in context.enclosures if e.power_off_enabled
            }
            assert enabled == self.COLD_AFTER[k]


class TestDDRPlanRule:
    def spy_on_apply(self, context, monkeypatch):
        # Components are slotted, so the spy wraps the class's method
        # and records only the calls on this context's executor.
        executor = context.executor
        calls = []
        real_apply = ActionExecutor.apply

        def spy(self, now, plan):
            if self is executor:
                calls.append((now, list(plan)))
            return real_apply(self, now, plan)

        monkeypatch.setattr(ActionExecutor, "apply", spy)
        return calls

    def test_no_plan_while_nothing_is_or_was_cold(self, monkeypatch):
        context = build_context(DEFAULT_CONFIG, 3)
        policy = started_policy(
            context, monitoring_period=1.0, target_th=2.0,
            iops_smoothing_seconds=1.0,
        )
        calls = self.spy_on_apply(context, monkeypatch)
        for name in context.enclosure_names():
            post(context.storage_monitor, 0.5, name, 5)
        assert policy.on_checkpoint(1.0) is None
        assert policy._cold == set()
        assert calls == []

    def test_plan_applied_while_some_enclosure_is_or_was_cold(
        self, monkeypatch
    ):
        context = build_context(DEFAULT_CONFIG, 2)
        policy = started_policy(
            context, monitoring_period=1.0, target_th=2.0,
            iops_smoothing_seconds=1.0,
        )
        calls = self.spy_on_apply(context, monkeypatch)
        post(context.storage_monitor, 0.5, "enc-00", 5)
        policy.on_checkpoint(1.0)  # enc-01 silent: cold
        for now in (2.0, 3.0):
            for name in ("enc-00", "enc-01"):
                post(context.storage_monitor, now - 0.5, name, 5)
            # 2.0: enc-01 leaves the cold set; 3.0: nothing cold at all.
            policy.on_checkpoint(now)
        assert calls == [
            (1.0, [SetPowerOffEnabled("enc-01", True)]),
            (2.0, [SetPowerOffEnabled("enc-01", False)]),
        ]


class TestDDRDegradedMode:
    def test_still_cold_enclosure_reenabled_after_cooldown(self):
        # One failed spin-up trips the gate; the failure ages out of its
        # window before the cool-down ends, so the first checkpoint after
        # the cool-down re-enables power-off on the still-cold enclosure.
        config = replace(
            DEFAULT_CONFIG,
            spin_up_failure_threshold=1,
            spin_up_failure_window=5.0,
            power_off_cooldown=20.0,
        )
        faults = FaultPlan(events=(SpinUpFailure("enc-01", after=60.0),))
        context = build_context(config, 3, faults=faults)
        names = context.enclosure_names()
        for e, name in enumerate(names):
            item = f"item-{e}"
            context.virtualization.add_item(
                item, 4 * units.GB, default_volume(name)
            )
            context.app_monitor.register_item(item, default_volume(name))
        policy = DDRPolicy(monitoring_period=1.0, iops_smoothing_seconds=5.0)
        records = stream("item-0", 0.0, 200.0, gap=1.0)
        records.append(LogicalIORecord(100.5, "item-1", 0, 4096, IOType.READ))
        TraceReplayer(context, policy).run(sorted(records), duration=200.0)

        enc = context.virtualization.enclosure("enc-01")
        assert len(enc.spin_up_failure_times) == 1
        enables = [
            r
            for r in context.executor.log
            if r.action == SetPowerOffEnabled("enc-01", True)
        ]
        vetoed = [
            r for r in enables
            if r.outcome is ActionOutcome.VETOED_BY_DEGRADED_MODE
        ]
        assert vetoed, "the spin-up failure never tripped the gate"
        tripped = vetoed[0].time
        assert vetoed[0].reason == "degraded-mode"
        assert all(r.reason == "cooldown" for r in vetoed[1:])
        # enc-01 stays cold through the cool-down, and the enablement is
        # re-issued at every checkpoint: vetoed for 20 s, then applied.
        window = [r for r in enables if tripped <= r.time <= tripped + 20]
        assert [r.time for r in window] == [tripped + k for k in range(21)]
        assert window[:-1] == vetoed
        assert window[-1].outcome is ActionOutcome.APPLIED
        assert enc.power_off_enabled
        assert context.executor.degraded_cooldowns == 1
