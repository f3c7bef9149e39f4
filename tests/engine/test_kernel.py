"""Tests for repro.engine.kernel — hooks, pairing, misuse, snapshots."""

import pytest

from repro import units
from repro.baselines.base import PowerPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.engine.kernel import SimulationKernel
from repro.errors import ReplayError, UsageError
from repro.faults.plan import CacheBatteryFailure, FaultPlan
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord


class PeriodicPolicy(PowerPolicy):
    """Minimal checkpointing policy: fixed period, logs each checkpoint."""

    name = "periodic-spy"

    def __init__(self, period=60.0):
        super().__init__()
        self.period = period
        self.checkpoints = []

    def on_start(self, now):
        self._next = now + self.period

    def next_checkpoint(self):
        return self._next

    def on_checkpoint(self, now):
        self.checkpoints.append(now)
        self._next = now + self.period


def make_context(faults=None):
    context = build_context(DEFAULT_CONFIG, 2, faults=faults)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    return context


def record(ts: float) -> LogicalIORecord:
    return LogicalIORecord(ts, "a", 0, 4096, IOType.READ)


class TestHooks:
    def test_checkpoint_and_finish_hooks_fire_in_order(self):
        context = make_context()
        policy = PeriodicPolicy(period=60.0)
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        seen = []
        kernel.add_checkpoint_hook(lambda t: seen.append(("checkpoint", t)))
        kernel.add_finish_hook(lambda t: seen.append(("finish", t)))
        outcome = kernel.replay([record(5.0), record(100.0)], duration=150.0)
        assert seen == [
            ("checkpoint", 60.0),
            ("checkpoint", 120.0),
            ("finish", outcome.final),
        ]
        assert policy.checkpoints == [60.0, 120.0]

    def test_outcome_reports_io_count_and_window(self):
        context = make_context()
        policy = NoPowerSavingPolicy()
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        outcome = kernel.replay([record(5.0), record(10.0)], duration=50.0)
        assert outcome.io_count == 2
        assert outcome.end == 50.0
        assert outcome.final >= outcome.end


class TestFaultPairing:
    def test_bookkeeping_events_drive_battery_failure(self):
        # No records at all: the only on_time() calls come from the
        # fault bookkeeping the kernel runs ahead of each checkpoint,
        # so the battery failure can only be noticed if it fires.
        faults = FaultPlan(events=(CacheBatteryFailure(time=100.0),))
        context = make_context(faults=faults)
        policy = PeriodicPolicy(period=60.0)
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        kernel.replay([], duration=300.0)
        assert context.controller.battery_failed

    def test_without_fault_clock_no_bookkeeping_is_scheduled(self):
        context = make_context()
        policy = PeriodicPolicy(period=60.0)
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        kernel.replay([], duration=300.0)
        assert context.fault_clock is None
        assert not context.controller.battery_failed


class TestReplayValidation:
    def test_unordered_records_raise(self):
        context = make_context()
        policy = NoPowerSavingPolicy()
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        with pytest.raises(ReplayError):
            kernel.replay([record(10.0), record(5.0)])

    def test_non_positive_duration_raises(self):
        context = make_context()
        policy = NoPowerSavingPolicy()
        policy.bind(context)
        with pytest.raises(ReplayError):
            SimulationKernel(context, policy).replay([], duration=0.0)


class TestFinishedKernelMisuse:
    """A settled kernel is single-use: further driving is a UsageError."""

    def _finished_kernel(self):
        context = make_context()
        policy = NoPowerSavingPolicy()
        policy.bind(context)
        kernel = SimulationKernel(context, policy)
        kernel.replay([record(5.0)], duration=50.0)
        assert kernel.finished
        return kernel

    def test_resume_replay_after_finish_raises_usage_error(self):
        kernel = self._finished_kernel()
        with pytest.raises(UsageError, match="finished kernel"):
            kernel.resume_replay([], duration=100.0, start_count=1,
                                 start_ts=5.0)

    def test_replay_after_finish_raises_before_touching_state(self):
        kernel = self._finished_kernel()
        context = kernel.context

        def state():
            return (
                kernel.snapshot_state(),
                context.app_monitor.snapshot_state(),
                context.storage_monitor.snapshot_state(),
                list(context.executor.log),
            )

        before = state()
        with pytest.raises(UsageError, match="finished kernel"):
            kernel.replay([record(60.0)], duration=100.0)
        assert state() == before


class TestSnapshotState:
    def _kernel(self):
        context = make_context()
        policy = PeriodicPolicy(period=60.0)
        policy.bind(context)
        return SimulationKernel(context, policy)

    def test_checkpoint_is_a_field_not_a_queue_entry(self):
        kernel = self._kernel()
        kernel.replay([record(5.0)], duration=50.0)
        state = kernel.snapshot_state()
        assert set(state) == {"clock", "_scheduled_checkpoint", "_finished"}
        assert state["_scheduled_checkpoint"] == 60.0
        assert state["_finished"] is True
