"""Tests for repro.monitoring.timeline — power-over-time sampling."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.monitoring.timeline import PowerTimeline
from repro.simulation import build_context, default_volume
from repro.storage.enclosure import DiskEnclosure
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer
from repro import units


def make_timeline(interval=60.0, count=2):
    encs = [DiskEnclosure(f"e{i}") for i in range(count)]
    return PowerTimeline(encs, interval), encs


class TestSampling:
    def test_no_sample_before_interval(self):
        timeline, _ = make_timeline()
        assert timeline.sample(30.0) is None
        assert timeline.points == []

    def test_idle_power_measured(self):
        timeline, encs = make_timeline()
        point = timeline.sample(60.0)
        idle = encs[0].power_model.idle_watts
        assert point is not None
        assert point.total_watts == pytest.approx(2 * idle)
        assert point.per_enclosure["e0"] == pytest.approx(idle)

    def test_active_interval_registers_higher_power(self):
        timeline, encs = make_timeline()
        timeline.sample(60.0)
        encs[0].submit(70.0)  # activity in the second interval
        second = timeline.sample(120.0)
        first = timeline.points[0]
        assert second.per_enclosure["e0"] > first.per_enclosure["e0"]

    def test_quiet_span_backfills_every_boundary(self):
        timeline, _ = make_timeline()
        point = timeline.sample(600.0)
        assert point is not None
        # One point per 60 s boundary: sparse callers still get a dense,
        # exact series.
        assert [p.timestamp for p in timeline.points] == [
            60.0 * k for k in range(1, 11)
        ]
        assert timeline.next_sample_time > 600.0

    def test_finish_records_tail(self):
        timeline, _ = make_timeline()
        timeline.sample(60.0)
        timeline.finish(90.0)
        assert timeline.points[-1].timestamp == 90.0

    def test_mean_watts_matches_enclosure_average(self):
        timeline, encs = make_timeline(interval=10.0, count=1)
        encs[0].submit(5.0)
        for t in range(10, 101, 10):
            timeline.sample(float(t))
        encs[0].settle(100.0)
        assert timeline.mean_watts() == pytest.approx(
            encs[0].energy_joules() / 100.0, rel=1e-6
        )

    def test_samples_for_enclosure(self):
        timeline, _ = make_timeline()
        timeline.sample(60.0)
        timeline.sample(120.0)
        samples = [point.per_enclosure["e1"] for point in timeline.points]
        assert len(samples) == 2
        assert all(watts > 0 for watts in samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerTimeline([], 60.0)
        with pytest.raises(ValueError):
            PowerTimeline([DiskEnclosure("e0")], 0.0)


class TestReplayIntegration:
    def test_timeline_populated_during_replay(self):
        context = build_context(DEFAULT_CONFIG, 2)
        context.virtualization.add_item(
            "a", units.MB, default_volume("enc-00")
        )
        context.app_monitor.register_item("a", default_volume("enc-00"))
        timeline = PowerTimeline(context.enclosures, interval_seconds=100.0)
        records = [
            LogicalIORecord(float(t), "a", 0, 4096, IOType.READ)
            for t in range(0, 1000, 50)
        ]
        TraceReplayer(context, EnergyEfficientPolicy(), timeline).run(
            records, duration=1000.0
        )
        assert len(timeline.points) >= 9
        assert timeline.points[-1].timestamp >= 1000.0
        series = timeline.total_series()
        assert all(watts > 0 for _, watts in series)
