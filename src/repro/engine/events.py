"""Typed simulation events and their deterministic priority classes.

Every "thing that happens at a virtual time" in the simulator fires in
one of the priority classes below.  When several share a timestamp the
kernel fires them in ascending *priority class* — the table is the
single place the boundary convention lives:

======================== ===== =====================================
occurrence               class fires at equal timestamps…
======================== ===== =====================================
timeline sample          0     first: a sample at a boundary reads
                               the books *before* any mutation there
fault bookkeeping        1     just before the checkpoint
                               (battery/outage accounting must
                               precede the policy's decision)
policy checkpoint        2     before any I/O at the same instant
trace record             3     after checkpoints, before flushes
flush deadline           4     deadlines settle what the
                               instant's I/O left behind
action apply             5     last: deferred action plans run after
                               every observation at the instant
======================== ===== =====================================

Classes 1 and 2 are the kernel's checkpoint slot, not heap events: the
kernel keeps the one live policy checkpoint in a field and fires it
(fault bookkeeping first, when a fault clock is attached) at key
``(t, POLICY_CHECKPOINT)`` against the heap.  Every other class is an
:class:`Event` subclass below.

Ties *within* a class break by insertion order (FIFO), enforced by the
queue's sequence number — so replays are deterministic regardless of
heap internals.  Events are dumb carriers: :meth:`Event.fire` just
routes back into the kernel, which owns all semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.errors import ValidationError

if TYPE_CHECKING:
    from repro.actions.plan import ActionPlan
    from repro.engine.kernel import SimulationKernel
    from repro.trace.records import LogicalIORecord

__all__ = [
    "TIMELINE_SAMPLE",
    "FAULT_BOOKKEEPING",
    "POLICY_CHECKPOINT",
    "TRACE_RECORD",
    "FLUSH_DEADLINE",
    "ACTION_APPLY",
    "Event",
    "TimelineSampleEvent",
    "TraceRecordEvent",
    "FlushDeadlineEvent",
    "ActionApplyEvent",
]

#: Priority class: recurring power-timeline boundary samples.
TIMELINE_SAMPLE = 0
#: Priority class: fault-clock bookkeeping (battery drain, outage exit),
#: fired by the kernel's checkpoint slot.
FAULT_BOOKKEEPING = 1
#: Priority class: policy monitoring-period checkpoints, fired by the
#: kernel's checkpoint slot.
POLICY_CHECKPOINT = 2
#: Priority class: trace records (I/O arrivals).
TRACE_RECORD = 3
#: Priority class: write-delay flush deadlines.
FLUSH_DEADLINE = 4
#: Priority class: deferred :mod:`repro.actions` plan applications.
ACTION_APPLY = 5


class Event:
    """One scheduled occurrence at a virtual time.

    Subclasses set :attr:`priority` (one of the module's priority-class
    constants) and implement :meth:`fire`.  The ``queued`` flag lets the
    queue refuse a second push of an instance it already holds.
    """

    __slots__ = ("time", "queued")

    priority: ClassVar[int] = TRACE_RECORD

    def __init__(self, time: float) -> None:
        if time < 0.0:
            raise ValidationError(
                f"events cannot be scheduled before t=0, got {time!r}"
            )
        self.time = time
        self.queued = False

    def fire(self, kernel: SimulationKernel) -> None:
        """Dispatch this event against the kernel that popped it."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} t={self.time}>"


class TimelineSampleEvent(Event):
    """Recurring power-timeline boundary sample; reschedules itself."""

    __slots__ = ()

    priority = TIMELINE_SAMPLE

    def fire(self, kernel: SimulationKernel) -> None:
        """Record the boundary point and schedule the next one."""
        kernel.fire_timeline_sample(self.time)


class TraceRecordEvent(Event):
    """A single trace record served as an event (online operation).

    Batch replay streams records through the kernel's merged pump
    without heap traffic; this event type exists for online/incremental
    feeds that :meth:`~repro.engine.kernel.SimulationKernel.post`
    records as they arrive.
    """

    __slots__ = ("record",)

    priority = TRACE_RECORD

    def __init__(self, record: LogicalIORecord) -> None:
        super().__init__(record.timestamp)
        self.record = record

    def fire(self, kernel: SimulationKernel) -> None:
        """Serve the carried I/O record."""
        kernel.serve_record(self.record)


class FlushDeadlineEvent(Event):
    """A write-delay flush deadline (§V-C) as an explicit event."""

    __slots__ = ()

    priority = FLUSH_DEADLINE

    def fire(self, kernel: SimulationKernel) -> None:
        """Flush delayed writes whose deadline has arrived."""
        kernel.fire_flush_deadline(self.time)


class ActionApplyEvent(Event):
    """A deferred :class:`~repro.actions.plan.ActionPlan` application.

    Lets online callers schedule a plan for a future instant; it is
    applied through the context's
    :class:`~repro.actions.executor.ActionExecutor` (the sole mutation
    path) after every other event class at the same timestamp, so the
    instant's observations see pre-mutation books.
    """

    __slots__ = ("plan",)

    priority = ACTION_APPLY

    def __init__(self, time: float, plan: ActionPlan) -> None:
        super().__init__(time)
        self.plan = plan

    def fire(self, kernel: SimulationKernel) -> None:
        """Apply the carried plan through the context executor."""
        kernel.fire_action_apply(self.time, self.plan)
