"""Tests for repro.trace.replay."""

import pytest

from repro.baselines.base import PowerPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.errors import ReplayError
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer


def rec(t, item="item-0", kind=IOType.READ):
    return LogicalIORecord(t, item, 0, 4096, kind)


class CheckpointSpy(PowerPolicy):
    """Policy that records the order of its callbacks."""

    name = "spy"

    def __init__(self, period=10.0):
        super().__init__()
        self.period = period
        self.calls: list[tuple[str, float]] = []
        self._next = None

    def on_start(self, now):
        self._next = now + self.period
        self.calls.append(("start", now))

    def next_checkpoint(self):
        return self._next

    def on_checkpoint(self, now):
        self.calls.append(("checkpoint", now))
        self.determinations += 1
        self._next = now + self.period

    def after_io(self, timestamp, *fields):
        self.calls.append(("io", timestamp))

    def on_end(self, now):
        self.calls.append(("end", now))


class TestReplayBasics:
    def test_replays_all_records(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        result = replayer.run([rec(1.0), rec(2.0), rec(3.0)], duration=10.0)
        assert result.io_count == 3
        assert result.duration_seconds >= 10.0

    def test_policy_name_in_result(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        result = replayer.run([rec(1.0)], duration=2.0)
        assert result.policy_name == "no-power-saving"

    def test_unordered_trace_rejected(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        with pytest.raises(ReplayError):
            replayer.run([rec(2.0), rec(1.0)])

    def test_duration_before_last_record_rejected(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        with pytest.raises(ReplayError):
            replayer.run([rec(5.0)], duration=1.0)

    def test_response_stats_collected(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        result = replayer.run([rec(1.0), rec(100.0)], duration=200.0)
        assert result.response.io_count == 2
        assert result.mean_response > 0

    def test_power_reading_present(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        result = replayer.run([rec(1.0)], duration=100.0)
        assert result.power.enclosure_watts > 0
        assert result.power.duration_seconds >= 100.0


class TestCheckpointDispatch:
    def test_checkpoints_run_before_later_records(self, small_context):
        spy = CheckpointSpy(period=10.0)
        TraceReplayer(small_context, spy).run(
            [rec(5.0), rec(25.0)], duration=30.0
        )
        kinds = [kind for kind, _ in spy.calls]
        # checkpoint at 10 and 20 must precede the io at 25
        assert kinds.index("checkpoint") < kinds.index("io") + 2
        times = [t for kind, t in spy.calls if kind == "checkpoint"]
        assert times == [10.0, 20.0, 30.0]

    def test_trailing_checkpoints_drain_to_duration(self, small_context):
        spy = CheckpointSpy(period=10.0)
        TraceReplayer(small_context, spy).run([rec(1.0)], duration=45.0)
        times = [t for kind, t in spy.calls if kind == "checkpoint"]
        assert times == [10.0, 20.0, 30.0, 40.0]

    def test_on_end_called_once_at_duration(self, small_context):
        spy = CheckpointSpy(period=100.0)
        TraceReplayer(small_context, spy).run([rec(1.0)], duration=50.0)
        ends = [(k, t) for k, t in spy.calls if k == "end"]
        assert ends == [("end", 50.0)]

    def test_determinations_reported(self, small_context):
        spy = CheckpointSpy(period=10.0)
        result = TraceReplayer(small_context, spy).run(
            [rec(1.0)], duration=35.0
        )
        assert result.determinations == 3

    def test_stuck_policy_detected(self, small_context):
        class Stuck(CheckpointSpy):
            def on_checkpoint(self, now):
                self.calls.append(("checkpoint", now))
                # never advances its checkpoint

        with pytest.raises(ReplayError):
            TraceReplayer(small_context, Stuck()).run(
                [rec(1.0)], duration=50.0
            )


class TestFinalization:
    def test_enclosures_settled_to_end(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        replayer.run([rec(1.0)], duration=500.0)
        for enclosure in small_context.enclosures:
            assert enclosure.clock >= 500.0

    def test_dirty_cache_flushed_at_end(self, small_context):
        controller = small_context.controller
        controller.select_write_delay(0.0, {"item-0"})
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        replayer.run(
            [rec(1.0, kind=IOType.WRITE)], duration=10.0
        )
        assert small_context.cache.write_delay.dirty_pages == 0

    def test_storage_monitor_finished(self, small_context):
        replayer = TraceReplayer(small_context, NoPowerSavingPolicy())
        replayer.run([rec(1.0)], duration=100.0)
        # The final gap (1.0 -> 100) must be closed into the interval set.
        intervals = small_context.storage_monitor.intervals("enc-00")
        assert any(gap > 90 for gap in intervals)
