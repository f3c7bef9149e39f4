"""Replay edge cases: empty traces, checkpoint ordering, idle-gap sampling.

These pin the boundary semantics the parallel experiment engine relies
on: every replay — serial, worker, or cached — must make the identical
decision sequence and report the identical power series.
"""

import pytest

from repro import units
from repro.baselines.base import PowerPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.errors import ReplayError
from repro.monitoring.timeline import PowerTimeline
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer


def rec(t):
    return LogicalIORecord(t, "item-0", 0, 4096, IOType.READ)


class TestEmptyTrace:
    """Satellite: an empty trace must fail early or mean something."""

    def test_without_duration_raises(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        with pytest.raises(ReplayError, match="empty trace"):
            replayer.run([])

    def test_zero_duration_raises(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        with pytest.raises(ReplayError, match="must be positive"):
            replayer.run([], duration=0.0)

    def test_negative_duration_raises(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        with pytest.raises(ReplayError, match="must be positive"):
            replayer.run([rec(1.0)], duration=-5.0)

    def test_with_duration_yields_zero_io_idle_result(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        result = replayer.run([], duration=100.0)
        assert result.io_count == 0
        assert result.duration_seconds == 100.0
        assert result.mean_response == 0.0
        assert result.migrated_bytes == 0
        idle = DEFAULT_CONFIG.enclosure_power.idle_watts
        assert result.power.enclosure_watts == pytest.approx(3 * idle)


class RecordingPolicy(PowerPolicy):
    """Logs callback order; checkpoints at a fixed period."""

    name = "recording"

    def __init__(self, period):
        super().__init__()
        self.period = period
        self._next = period
        self.events = []

    def next_checkpoint(self):
        return self._next

    def on_checkpoint(self, now):
        self.events.append(("checkpoint", now))
        self._next = now + self.period

    def after_io(self, timestamp, *fields):
        self.events.append(("io", timestamp))


class TestCheckpointOrdering:
    """Satellite: a checkpoint at a record's timestamp runs before it."""

    def test_checkpoint_precedes_coincident_record(self, small_context):
        policy = RecordingPolicy(period=10.0)
        TraceReplayer(small_context, policy).run([rec(10.0)], duration=20.0)
        assert policy.events == [
            ("checkpoint", 10.0),
            ("io", 10.0),
            ("checkpoint", 20.0),
        ]


class PowerOffAt(RecordingPolicy):
    """Enables enclosure power-off at one chosen checkpoint."""

    name = "power-off-at"

    def __init__(self, period, act_at, timeline):
        super().__init__(period)
        self.act_at = act_at
        self.timeline = timeline
        self.points_at_action = None

    def on_checkpoint(self, now):
        if now == self.act_at:
            # Snapshot BEFORE acting: the fix under test guarantees all
            # due boundaries were sampled before the policy can settle
            # the enclosures past them.
            self.points_at_action = [p.timestamp for p in self.timeline.points]
            for enclosure in self._require_context().enclosures:
                enclosure.enable_power_off(now)
        super().on_checkpoint(now)


class TestIdleGapSampling:
    """Satellite: samples due inside long idle gaps are not deferred."""

    def test_gap_yields_exact_intermediate_samples(self, config):
        context = build_context(config, 1)
        name = context.enclosure_names()[0]
        context.virtualization.add_item("item-0", 64 * units.MB, default_volume(name))
        context.app_monitor.register_item("item-0", default_volume(name))
        timeline = PowerTimeline(context.enclosures, interval_seconds=60.0)
        policy = PowerOffAt(period=100.0, act_at=300.0, timeline=timeline)
        replayer = TraceReplayer(context, policy, timeline=timeline)
        replayer.run([rec(1.0)], duration=500.0)

        # Mid-gap boundaries existed already when the policy acted at
        # t=300 — they were not backfilled at finish time.
        assert policy.points_at_action == [60.0, 120.0, 180.0, 240.0, 300.0]

        by_time = {p.timestamp: p.total_watts for p in timeline.points}
        assert sorted(by_time) == [
            60.0, 120.0, 180.0, 240.0, 300.0, 360.0, 420.0, 480.0, 500.0,
        ]
        power = config.enclosure_power
        # 120..300: pure idle intervals, exact.
        for at in (120.0, 180.0, 240.0, 300.0):
            assert by_time[at] == power.idle_watts
        # 300..360 spans idle (until 300 + spin_down_timeout), the
        # spin-down transition, and the first seconds powered off.
        idle_span = config.spin_down_timeout
        spin_span = power.spin_down_seconds
        off_span = 60.0 - idle_span - spin_span
        expected = (
            power.idle_watts * idle_span
            + power.spin_down_watts * spin_span
            + power.off_watts * off_span
        ) / 60.0
        assert by_time[360.0] == pytest.approx(expected)
        # 360..500: powered off throughout.
        for at in (420.0, 480.0, 500.0):
            assert by_time[at] == pytest.approx(power.off_watts)
