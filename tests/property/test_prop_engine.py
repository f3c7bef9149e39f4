"""Property tests: event ordering under the repro.engine kernel.

The queue's contract is a *total, explicit* order — ascending time,
then ascending priority class (timeline-sample < trace-record <
flush-deadline < action-apply), then insertion order — independent of
the order events were pushed.  The kernel extends it with its checkpoint
slot: the one live policy checkpoint is a field, not a heap entry, and
fires at key ``(t, POLICY_CHECKPOINT)`` with fault bookkeeping right
before it.  These properties draw times from a small grid so
equal-timestamp collisions are common, and assert fires always come out
in the documented order, including when the policy moves its checkpoint.

Replay determinism rides on top of this: the serial == parallel ==
cached bit-identity suite (``tests/experiments``) and the pre-kernel
golden test (``tests/trace/test_replay_golden.py``) both run every
replay through the kernel, so those suites double as end-to-end
determinism proofs; here we add the direct property that two replays
of the same trace in one process are equal object-for-object.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baselines.base import PowerPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.engine.events import (
    ACTION_APPLY,
    FAULT_BOOKKEEPING,
    FLUSH_DEADLINE,
    POLICY_CHECKPOINT,
    TIMELINE_SAMPLE,
    TRACE_RECORD,
    Event,
    FlushDeadlineEvent,
    TimelineSampleEvent,
    TraceRecordEvent,
)
from repro.engine.kernel import SimulationKernel
from repro.engine.queue import EventQueue
from repro.faults.plan import CacheBatteryFailure, FaultPlan
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer

#: Constructor per heap priority class; the base Event carries TRACE_RECORD.
EVENT_KINDS = (
    TimelineSampleEvent,
    Event,
    FlushDeadlineEvent,
)

#: A coarse time grid, so same-timestamp collisions are the common case.
GRID = [0.0, 10.0, 20.0, 30.0, 40.0]

event_specs = st.lists(
    st.tuples(
        st.sampled_from(GRID[:4]),
        st.integers(min_value=0, max_value=len(EVENT_KINDS) - 1),
    ),
    max_size=40,
)


@given(specs=event_specs)
def test_pops_follow_time_class_insertion_order(specs):
    queue = EventQueue()
    pushed = []
    for order, (time, kind) in enumerate(specs):
        event = EVENT_KINDS[kind](time)
        queue.push(event)
        pushed.append((time, event.priority, order, event))
    expected = [entry[3] for entry in sorted(pushed, key=lambda e: e[:3])]
    assert len(queue) == len(expected)
    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append(event)
    assert drained == expected


# ---------------------------------------------------------------------------
# The off-heap checkpoint slot against heap events
# ---------------------------------------------------------------------------


class _Recorded(Event):
    """Logs ``(time, class, insertion)`` when it fires."""

    __slots__ = ("log", "order")

    def __init__(self, time, log, order):
        super().__init__(time)
        self.log = log
        self.order = order

    def fire(self, kernel):
        self.log.append((self.time, self.priority, self.order))


class _RecordedSample(_Recorded):
    __slots__ = ()
    priority = TIMELINE_SAMPLE


class _RecordedFlush(_Recorded):
    __slots__ = ()
    priority = FLUSH_DEADLINE


class _RecordedApply(_Recorded):
    __slots__ = ()
    priority = ACTION_APPLY


class _RecordedRecord(TraceRecordEvent):
    """A served I/O arrival that logs itself, then runs ``after_io``."""

    __slots__ = ("log", "order")

    def __init__(self, time, log, order):
        super().__init__(LogicalIORecord(time, "a", 0, 4096, IOType.READ))
        self.log = log
        self.order = order

    def fire(self, kernel):
        self.log.append((self.time, self.priority, self.order))
        super().fire(kernel)


#: Recording constructor per heap class drawn by the ordering property.
RECORDED_KINDS = {
    TIMELINE_SAMPLE: _RecordedSample,
    TRACE_RECORD: _RecordedRecord,
    FLUSH_DEADLINE: _RecordedFlush,
    ACTION_APPLY: _RecordedApply,
}


class _MovingPolicy(PowerPolicy):
    """Checkpoints on the grid; moves the checkpoint on I/O and checkpoints.

    Each move consumes one drawn step: a step of ``k`` puts the next
    checkpoint ``10·k`` seconds after now, ``None`` withdraws it.  Once
    the steps run out, checkpoints recur every 10 s and I/O leaves them
    alone.
    """

    name = "moving-spy"

    def __init__(self, first, steps, log):
        super().__init__()
        self._next = first
        self._steps = list(steps)
        self.log = log

    def next_checkpoint(self):
        return self._next

    def _move(self, now, default):
        step = self._steps.pop(0) if self._steps else default
        self._next = None if step is None else now + 10.0 * step

    def on_checkpoint(self, now):
        # A moved checkpoint must never fire at its stale time.
        assert now == self._next, (now, self._next)
        self.log.append((now, POLICY_CHECKPOINT, 0))
        self._move(now, 1)

    def after_io(self, timestamp, *fields):
        if self._steps:
            self._move(timestamp, None)


class _RecordingKernel(SimulationKernel):
    def __init__(self, context, policy, log):
        super().__init__(context, policy)
        self.log = log

    def fire_fault_bookkeeping(self, now):
        self.log.append((now, FAULT_BOOKKEEPING, 0))
        super().fire_fault_bookkeeping(now)


def _moving_kernel(first, steps, faulted):
    faults = (
        FaultPlan(events=(CacheBatteryFailure(time=1.0e6),))
        if faulted
        else None
    )
    context = build_context(DEFAULT_CONFIG, 2, faults=faults)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    log = []
    policy = _MovingPolicy(first, steps, log)
    policy.bind(context)
    return _RecordingKernel(context, policy, log), policy, log


def _assert_checkpoint_order(log, faulted):
    """Fires follow (time, class, insertion); bookkeeping sits in slot 1."""
    assert log == sorted(log)
    classes = [entry[1] for entry in log]
    checkpoints = [i for i, c in enumerate(classes) if c == POLICY_CHECKPOINT]
    bookkeeping = [i for i, c in enumerate(classes) if c == FAULT_BOOKKEEPING]
    if faulted:
        assert bookkeeping == [i - 1 for i in checkpoints]
        assert all(log[i][0] == log[i + 1][0] for i in bookkeeping)
    else:
        assert bookkeeping == []


heap_specs = st.lists(
    st.tuples(st.sampled_from(GRID), st.sampled_from(sorted(RECORDED_KINDS))),
    max_size=25,
)
checkpoint_steps = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=12
)
first_checkpoint = st.one_of(st.none(), st.sampled_from(GRID))


@settings(deadline=None, max_examples=60)
@given(
    specs=heap_specs,
    first=first_checkpoint,
    steps=checkpoint_steps,
    faulted=st.booleans(),
)
def test_online_checkpoint_slot_orders_against_heap(
    specs, first, steps, faulted
):
    kernel, policy, log = _moving_kernel(first, steps, faulted)
    context = kernel.context
    policy.on_start(0.0)
    context.app_monitor.begin_window(0.0)
    context.storage_monitor.begin_window(0.0)
    kernel._sync_checkpoint()
    for order, (time, kind) in enumerate(specs):
        kernel.post(RECORDED_KINDS[kind](time, log, order))
    horizon = GRID[-1] + 10.0
    kernel.run_until(horizon)
    _assert_checkpoint_order(log, faulted)
    fired = sorted(entry[2] for entry in log if entry[1] in RECORDED_KINDS)
    assert fired == list(range(len(specs)))
    # Every checkpoint due by the horizon fired.
    pending = policy.next_checkpoint()
    assert pending is None or pending > horizon


@settings(deadline=None, max_examples=60)
@given(
    specs=heap_specs,
    records=st.lists(st.sampled_from(GRID), min_size=1, max_size=12),
    first=first_checkpoint,
    steps=checkpoint_steps,
    faulted=st.booleans(),
)
def test_batch_checkpoint_slot_orders_against_heap_and_records(
    specs, records, first, steps, faulted
):
    kernel, policy, log = _moving_kernel(first, steps, faulted)
    posted = [(time, kind) for time, kind in specs if kind != TRACE_RECORD]
    for order, (time, kind) in enumerate(posted):
        kernel.post(RECORDED_KINDS[kind](time, log, order))
    trace = [
        LogicalIORecord(ts, "a", 0, 4096, IOType.READ)
        for ts in sorted(records)
    ]
    # Records log through after_io, in trace order.
    after_io = policy.after_io
    record_log = iter(range(len(trace)))

    def logged_after_io(timestamp, *fields):
        log.append((timestamp, TRACE_RECORD, next(record_log)))
        after_io(timestamp, *fields)

    policy.after_io = logged_after_io
    duration = GRID[-1] + 10.0
    kernel.replay(trace, duration=duration)
    _assert_checkpoint_order(log, faulted)
    last = trace[-1].timestamp
    fired = {
        entry[2]
        for entry in log
        if entry[1] in RECORDED_KINDS and entry[1] != TRACE_RECORD
    }
    due = {
        order
        for order, (time, kind) in enumerate(posted)
        if (time, kind) < (last, TRACE_RECORD)
    }
    assert due <= fired
    # The tail drain fires every checkpoint due by the window's end.
    pending = policy.next_checkpoint()
    assert pending is None or pending > duration


def _replay_once():
    context = build_context(DEFAULT_CONFIG, 2)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    records = [
        LogicalIORecord(float(t), "a", 0, 4096, IOType.READ)
        for t in range(0, 600, 35)
    ]
    return TraceReplayer(context, NoPowerSavingPolicy()).run(
        records, duration=600.0
    )


@settings(deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=2))
def test_replay_is_deterministic_run_to_run(_seed):
    assert _replay_once() == _replay_once()
