"""The discrete-event simulation kernel.

:class:`SimulationKernel` is the one dispatch site through which virtual
time passes.  Every time consumer that the pre-kernel ``TraceReplayer``
hand-threaded — power-timeline boundary samples, fault-clock
bookkeeping, policy monitoring-period checkpoints, trace records,
write-delay flush deadlines — fires from here in ``(time, priority
class, insertion order)`` order.  Timeline samples, records served
online, flush deadlines and deferred action plans are
:class:`~repro.engine.events.Event` objects on one deterministic
:class:`~repro.engine.queue.EventQueue`; the policy checkpoint is a
field (see below).

Two entry points:

* :meth:`SimulationKernel.replay` — batch mode.  Trace records arrive
  as a pre-sorted :class:`~repro.trace.columnar.ColumnarTrace` (any
  other record iterable is packed into one first), so the one record
  loop *merges* the columns with the event heap and the checkpoint
  field instead of pushing every record through the heap: the heap
  only ever holds the handful of live recurring events, which keeps the
  hot loop allocation-free and the throughput at parity with the old
  hand-threaded loop.
* :meth:`SimulationKernel.post` + :meth:`SimulationKernel.run_until` —
  online mode.  Events (including
  :class:`~repro.engine.events.TraceRecordEvent` I/O arrivals) are
  scheduled as they become known and the clock is pumped forward
  incrementally, the formulation the online/streaming roadmap items
  need.

Checkpoint scheduling is *synchronized polling*: policies still expose
``next_checkpoint()`` (see :class:`repro.baselines.base.PowerPolicy`),
and the kernel mirrors it in one float, re-read at the only points the
value can change — after each ``after_io`` and after each
``on_checkpoint``.  The checkpoint never enters the heap: the dispatch
loop compares its slot, key ``(t, POLICY_CHECKPOINT)``, with the heap
top, so a moved checkpoint simply overwrites the float and can never
fire at its stale time.  When a fault clock is installed, the slot
first runs fault bookkeeping (class ``FAULT_BOOKKEEPING``), preserving
the pre-kernel call order ``controller.on_time(t)`` then
``policy.on_checkpoint(t)``.

The golden regression test (``tests/trace/test_replay_golden.py``)
pins this kernel bit-identical to the pre-kernel replayer for every
policy, with and without faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.actions.plan import ActionPlan
from repro.actions.records import FlushWriteDelay
from repro.engine.clock import SimClock
from repro.engine.events import (
    ACTION_APPLY,
    POLICY_CHECKPOINT,
    TRACE_RECORD,
    ActionApplyEvent,
    Event,
    FlushDeadlineEvent,
    TimelineSampleEvent,
    TraceRecordEvent,
)
from repro.engine.queue import EventQueue
from repro.errors import ReplayError, SnapshotError, UsageError
from repro.trace.columnar import FLAG_READ, FLAG_SEQUENTIAL, ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import PowerPolicy
    from repro.monitoring.timeline import PowerTimeline
    from repro.simulation import SimulationContext
    from repro.trace.records import LogicalIORecord

__all__ = ["ReplayOutcome", "SimulationKernel"]

#: Priority bound one past the last class; ``run_until`` uses it so a
#: pump to time ``t`` includes every event class scheduled at ``t``.
_PAST_LAST_CLASS = ACTION_APPLY + 1

#: Event-kind tags used by the kernel snapshot (:mod:`repro.persistence`).
#: Snapshots never pickle :class:`~repro.engine.events.Event` instances —
#: their ``queued`` flags and kernel back-references are runtime
#: identity, not state — so queue entries are serialized as
#: ``(seq, kind, time, payload)`` tuples and rebuilt on restore.
_EVENT_KINDS: dict[type[Event], str] = {
    TimelineSampleEvent: "timeline_sample",
    TraceRecordEvent: "trace_record",
    FlushDeadlineEvent: "flush_deadline",
    ActionApplyEvent: "action_apply",
}


def _as_columnar(records: Iterable[LogicalIORecord]) -> ColumnarTrace:
    """``records`` as a :class:`ColumnarTrace`, packing it if needed."""
    if isinstance(records, ColumnarTrace):
        return records
    return ColumnarTrace.from_records(records)


def _encode_event(event: Event) -> tuple[str, float, object]:
    """Serialize one live event as a ``(kind, time, payload)`` tuple."""
    kind = _EVENT_KINDS.get(type(event))
    if kind is None:
        raise UsageError(
            f"cannot snapshot unknown event type {type(event).__name__!r}"
        )
    payload: object = None
    if isinstance(event, TraceRecordEvent):
        payload = event.record
    elif isinstance(event, ActionApplyEvent):
        payload = event.plan
    return (kind, event.time, payload)


def _decode_event(kind: str, time: float, payload: object) -> Event:
    """Rebuild a fresh event instance from its snapshot tuple."""
    if kind == "timeline_sample":
        return TimelineSampleEvent(time)
    if kind == "flush_deadline":
        return FlushDeadlineEvent(time)
    if kind == "trace_record":
        return TraceRecordEvent(payload)  # type: ignore[arg-type]
    if kind == "action_apply":
        return ActionApplyEvent(time, payload)  # type: ignore[arg-type]
    raise SnapshotError(f"unknown event kind {kind!r} in snapshot")


@dataclass(frozen=True)
class ReplayOutcome:
    """What :meth:`SimulationKernel.replay` measured about the window."""

    #: Number of trace records served.
    io_count: int
    #: Declared (or inferred) end of the measurement window, seconds.
    end: float
    #: Final settlement time — ``end`` or later if the tail flush ran past it.
    final: float


class SimulationKernel:
    """Deterministic event pump over one simulation context.

    A kernel drives one measurement window and is single-use for
    :meth:`replay` (exactly like the pre-kernel replayer, whose loop
    state lived in locals).  The caller is expected to have bound
    ``policy`` to ``context`` already; :class:`repro.trace.replay.TraceReplayer`
    does so and remains the public batch entry point.
    """

    def __init__(
        self,
        context: SimulationContext,
        policy: PowerPolicy,
        timeline: PowerTimeline | None = None,
    ) -> None:
        self.context = context
        self.policy = policy
        self.timeline = timeline
        self.clock = SimClock()
        self.queue = EventQueue()
        self._scheduled_checkpoint: float | None = None
        self._checkpoint_hooks: list[Callable[[float], None]] = []
        self._finish_hooks: list[Callable[[float], None]] = []
        self._record_hook: Callable[[int, float], None] | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # Hook + scheduling surface
    # ------------------------------------------------------------------

    def add_checkpoint_hook(self, hook: Callable[[float], None]) -> None:
        """Call ``hook(time)`` after every policy checkpoint fires.

        Hooks run after ``policy.on_checkpoint`` and before the
        advancement guard — the slot the invariant auditor occupied in
        the pre-kernel replayer.
        """
        self._checkpoint_hooks.append(hook)

    def add_finish_hook(self, hook: Callable[[float], None]) -> None:
        """Call ``hook(final)`` once after end-of-run settlement."""
        self._finish_hooks.append(hook)

    def set_record_hook(
        self, hook: Callable[[int, float], None] | None
    ) -> None:
        """Call ``hook(count, time)`` after each trace record completes.

        The hook fires at *record boundaries* — after the record's
        submit/observe/policy chain and the checkpoint re-sync — which
        is exactly where :mod:`repro.persistence` takes snapshots (and
        where its crash harness injects kills).  The hook must not
        mutate simulation state; it observes the cursor, nothing more.
        """
        self._record_hook = hook

    @property
    def finished(self) -> bool:
        """Whether this kernel's run has settled (kernels are single-use)."""
        return self._finished

    def post(self, event: Event) -> Event:
        """Schedule ``event`` on the kernel's queue and return it.

        The online entry point: arrivals, deadlines, or custom event
        sources go in here and fire when :meth:`run_until` (or the
        batch pump) reaches their time.  Raises
        :class:`~repro.errors.UsageError`, before touching the queue,
        once the run has finished — a settled kernel's books are final
        and an event posted after settlement could never fire — and for
        an event behind the clock, which could only fire by moving
        virtual time backwards.
        """
        if self._finished:
            raise UsageError(
                "cannot post events to a finished kernel: the run has "
                "settled; build a fresh kernel for a new window"
            )
        if event.time < self.clock.now:
            raise UsageError(
                f"cannot post {event!r}: it is in the past, the clock is "
                f"at {self.clock.now}"
            )
        return self.queue.push(event)

    # ------------------------------------------------------------------
    # Batch replay
    # ------------------------------------------------------------------

    def replay(
        self,
        records: Iterable[LogicalIORecord],
        duration: float | None = None,
    ) -> ReplayOutcome:
        """Pump a time-ordered record stream through the simulation.

        Semantics (validation errors, boundary convention, end-of-run
        settlement order) are exactly those documented on
        :meth:`repro.trace.replay.TraceReplayer.run`; the golden test
        holds this method bit-identical to the pre-kernel loop.

        Any input that is not already a
        :class:`~repro.trace.columnar.ColumnarTrace` is packed into one
        first, so every replay runs the same column loop.  Raises
        :class:`~repro.errors.UsageError`, before touching any state,
        once the kernel has finished.
        """
        if self._finished:
            raise UsageError(
                "cannot replay on a finished kernel: the run has settled; "
                "build a fresh kernel for a new window"
            )
        if duration is not None and duration <= 0.0:
            raise ReplayError(
                f"declared duration must be positive, got {duration}"
            )
        trace = _as_columnar(records)
        self._begin_replay()
        return self._pump(trace, duration, 0, 0.0)

    def resume_replay(
        self,
        records: Iterable[LogicalIORecord],
        duration: float | None,
        start_count: int,
        start_ts: float,
    ) -> ReplayOutcome:
        """Continue a replay from a restored snapshot boundary.

        The caller has already rebuilt the context/policy wiring and
        restored every component's state (including this kernel's, via
        :meth:`restore_state`) from a :mod:`repro.persistence` snapshot
        taken after record ``start_count`` at timestamp ``start_ts``.
        Those first ``start_count`` records of ``records`` are skipped —
        their effects live in the restored state — and the pump resumes
        with the cursor seeded at the boundary.  The replay prologue
        (``policy.on_start``, window begins, the first timeline sample)
        is deliberately **not** re-run: the restored queue and monitors
        already reflect it.  Epilogue semantics match :meth:`replay`,
        so the outcome is bit-identical to an uninterrupted run.
        """
        if self._finished:
            raise UsageError(
                "cannot resume a finished kernel: build a fresh kernel "
                "and restore the snapshot into it"
            )
        if duration is not None and duration <= 0.0:
            raise ReplayError(
                f"declared duration must be positive, got {duration}"
            )
        if start_count < 0 or start_ts < 0.0:
            raise ReplayError(
                "resume cursor must be non-negative, got "
                f"count={start_count}, ts={start_ts}"
            )
        trace = _as_columnar(records)[start_count:]
        return self._pump(trace, duration, start_count, start_ts)

    def _pump(
        self,
        trace: ColumnarTrace,
        duration: float | None,
        count: int,
        last_ts: float,
    ) -> ReplayOutcome:
        """The record loop: drive the simulation straight off columns.

        Each record goes through the scalar I/O chain — controller
        ``submit``, application-monitor ``record``, policy ``after_io``
        — so no :class:`~repro.trace.records.LogicalIORecord` exists
        anywhere on the loop.
        """
        from repro.baselines.base import PowerPolicy

        context = self.context
        policy = self.policy
        clock = self.clock
        queue = self.queue
        hook = self._record_hook

        timestamps = trace.timestamps
        item_index = trace.item_index
        offsets = trace.offsets
        sizes = trace.sizes
        flags = trace.flags
        items = trace.items
        # Flag bits decoded through tables instead of per-record bool()
        # calls; the flags column is u1, so 256 entries cover it.
        read_lut = [bool(value & FLAG_READ) for value in range(256)]
        sequential_lut = [bool(value & FLAG_SEQUENTIAL) for value in range(256)]

        submit = context.controller.submit
        record = context.app_monitor.record
        next_checkpoint = policy.next_checkpoint
        dispatch = self._dispatch_until
        peek = queue.peek_key
        advance = clock.advance

        # Policies that do not override the after-I/O hook
        # (no-power-saving and friends) are skipped entirely: a no-op
        # cannot move the checkpoint, so the per-record re-sync is
        # dropped with it.
        after_io: Callable[..., None] | None = policy.after_io
        if type(policy).after_io is PowerPolicy.after_io:
            after_io = None

        trace_record = TRACE_RECORD
        # Local mirror of ``_scheduled_checkpoint``: only a dispatch or
        # the after-I/O re-sync below can move it.
        checkpoint = self._scheduled_checkpoint
        for ts, idx, offset, size, flag in zip(
            timestamps, item_index, offsets, sizes, flags
        ):
            if ts < last_ts:
                raise ReplayError(
                    f"trace not time-ordered: {ts} after {last_ts}"
                )
            last_ts = ts
            # The checkpoint slot precedes a record at its own timestamp.
            # Otherwise re-peek the heap per record: any after-I/O hook
            # may have queued new events (e.g. a management cycle posting
            # flush deadlines).  The key is compared field-wise to avoid
            # building a tuple per record.
            if checkpoint is not None and checkpoint <= ts:
                dispatch((ts, trace_record))
                checkpoint = self._scheduled_checkpoint
            else:
                key = peek()
                if key is not None:
                    key_ts = key[0]
                    if key_ts < ts or (key_ts == ts and key[1] < trace_record):
                        dispatch((ts, trace_record))
                        checkpoint = self._scheduled_checkpoint
            advance(ts)
            item = items[idx]
            is_read = read_lut[flag]
            sequential = sequential_lut[flag]
            response = submit(ts, item, offset, size, is_read, sequential)
            record(ts, item, offset, size, is_read, sequential, response)
            count += 1
            if after_io is not None:
                after_io(ts, item, offset, size, is_read, sequential, response)
                # _sync_checkpoint inlined: one call less per record.
                checkpoint = self._scheduled_checkpoint = next_checkpoint()
            if hook is not None:
                hook(count, ts)

        return self._finish_replay(count, last_ts, duration)

    def _begin_replay(self) -> None:
        """Shared replay prologue: window starts, first timeline sample,
        initial checkpoint sync."""
        self.policy.on_start(0.0)
        self.context.app_monitor.begin_window(0.0)
        self.context.storage_monitor.begin_window(0.0)
        if self.timeline is not None:
            self.queue.push(
                TimelineSampleEvent(self.timeline.next_sample_time)
            )
        self._sync_checkpoint()

    def _finish_replay(
        self, count: int, last_ts: float, duration: float | None
    ) -> ReplayOutcome:
        """Shared replay epilogue: tail drain, settlement, finish hooks."""
        context = self.context
        if count == 0 and duration is None:
            raise ReplayError(
                "cannot replay an empty trace without an explicit "
                "duration: there is no measurement window"
            )
        end = duration if duration is not None else last_ts
        if end < last_ts:
            raise ReplayError(
                f"declared duration {end} ends before last record at {last_ts}"
            )
        self._drain_tail(end)
        self.policy.on_end(end)
        completion = context.controller.finish(end)
        final = max(end, completion)
        self.clock.advance(final)
        context.storage_monitor.finish(final)
        for enclosure in context.enclosures:
            enclosure.finish(final)
        if self.timeline is not None:
            # Boundaries past the last fired checkpoint are settled here,
            # *after* the tail flush mutations — the pre-kernel ordering.
            self.timeline.finish(final)
        for hook in self._finish_hooks:
            hook(final)
        self._finished = True
        return ReplayOutcome(io_count=count, end=end, final=final)

    # ------------------------------------------------------------------
    # Online pump
    # ------------------------------------------------------------------

    def run_until(self, time: float) -> float:
        """Fire every queued event scheduled at or before ``time``.

        Advances the clock to ``time`` even if nothing fires, and
        returns it.  This is the incremental pump for online operation;
        it performs no end-of-run settlement.

        Raises :class:`~repro.errors.UsageError` for a ``time`` behind
        the current clock (virtual time never rewinds — clamping would
        silently skip the events between ``time`` and now) and for any
        pump attempt after the run has finished.
        """
        if self._finished:
            raise UsageError(
                "cannot pump a finished kernel: the run has settled; "
                "build a fresh kernel for a new window"
            )
        if time < self.clock.now:
            raise UsageError(
                f"run_until({time}) is in the past: the clock is at "
                f"{self.clock.now}"
            )
        self._dispatch_until((time, _PAST_LAST_CLASS))
        if self.clock.now < time:
            self.clock.advance(time)
        return time

    # ------------------------------------------------------------------
    # Event dispatch (called by Event.fire)
    # ------------------------------------------------------------------

    def serve_record(self, record: LogicalIORecord) -> None:
        """Serve one I/O record: submit, observe, let the policy react."""
        fields = (
            record.timestamp,
            record.item_id,
            record.offset,
            record.size,
            record.is_read,
            record.sequential,
        )
        response = self.context.controller.submit(*fields)
        self.context.app_monitor.record(*fields, response)
        self.policy.after_io(*fields, response)
        self._sync_checkpoint()

    def fire_timeline_sample(self, now: float) -> None:
        """Record the due timeline boundary and schedule the next one."""
        timeline = self.timeline
        if timeline is None:
            return
        timeline.sample(now)
        self.queue.push(TimelineSampleEvent(timeline.next_sample_time))

    def fire_fault_bookkeeping(self, now: float) -> None:
        """Run controller fault bookkeeping ahead of the checkpoint at ``now``."""
        self.context.controller.on_time(now)

    def fire_policy_checkpoint(self, now: float) -> None:
        """Run a policy checkpoint, its hooks, and re-sync the schedule."""
        policy = self.policy
        policy.on_checkpoint(now)
        for hook in self._checkpoint_hooks:
            hook(now)
        follow_up = policy.next_checkpoint()
        if follow_up is not None and follow_up <= now:
            raise ReplayError(
                f"policy {policy.name!r} did not advance its "
                f"checkpoint past {now}"
            )
        self._scheduled_checkpoint = follow_up

    def fire_flush_deadline(self, now: float) -> None:
        """Flush delayed writes whose deadline arrived at ``now``.

        Routed through the action executor so deadline flushes appear in
        the action log like every other mutation.
        """
        self.context.require_executor().apply(
            now, ActionPlan([FlushWriteDelay()])
        )

    def fire_action_apply(self, now: float, plan: ActionPlan) -> None:
        """Apply a deferred action plan through the context executor."""
        self.context.require_executor().apply(now, plan)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch_until(self, bound: tuple[float, int]) -> None:
        """Fire everything whose ``(time, priority)`` key is < ``bound``.

        That is queued events and the policy checkpoint, whose slot has
        key ``(t, POLICY_CHECKPOINT)``.  With a fault clock attached the
        slot runs fault bookkeeping first, so ``controller.on_time(t)``
        precedes ``policy.on_checkpoint(t)``.
        """
        queue = self.queue
        clock = self.clock
        bookkeeping = self.context.fault_clock is not None
        while True:
            key = queue.peek_key()
            checkpoint = self._scheduled_checkpoint
            if checkpoint is not None:
                slot = (checkpoint, POLICY_CHECKPOINT)
                if slot < bound and (key is None or slot < key):
                    clock.advance(checkpoint)
                    if bookkeeping:
                        self.fire_fault_bookkeeping(checkpoint)
                    self.fire_policy_checkpoint(checkpoint)
                    continue
            if key is None or key >= bound:
                return
            event = queue.pop()
            if event is None:  # pragma: no cover - peek saw an event
                return
            clock.advance(event.time)
            event.fire(self)

    def _drain_tail(self, end: float) -> None:
        """Fire every remaining checkpoint scheduled at or before ``end``.

        Timeline boundaries *beyond* the last fired checkpoint stay
        queued on purpose: the pre-kernel engine recorded them inside
        ``timeline.finish`` after the tail flush, and so does
        :meth:`replay`.
        """
        while (
            self._scheduled_checkpoint is not None
            and self._scheduled_checkpoint <= end
        ):
            self._dispatch_until((self._scheduled_checkpoint, TRACE_RECORD))

    def _sync_checkpoint(self) -> None:
        """Mirror ``policy.next_checkpoint()`` in the checkpoint field.

        Called at every point the policy may have moved its checkpoint;
        a moved checkpoint replaces the old value outright.
        """
        self._scheduled_checkpoint = self.policy.next_checkpoint()

    # ------------------------------------------------------------------
    # Snapshot support (repro.persistence)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable kernel state: clock, queued events, checkpoint.

        Captured strictly read-only at a record boundary.  Events are
        stored as ``(seq, (kind, time, payload))`` tuples — see
        :func:`_encode_event` — with the queue's sequence counter, so a
        restore reproduces same-timestamp FIFO tie-breaks exactly.
        """
        entries = [
            (seq, _encode_event(event))
            for _, _, seq, event in self.queue.live_entries()
        ]
        return {
            "clock": self.clock.snapshot_state(),
            "queue_entries": entries,
            "queue_next_seq": self.queue.next_seq,
            "scheduled_checkpoint": self._scheduled_checkpoint,
            "finished": self._finished,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild clock, queue, and checkpoint from a snapshot."""
        self.clock.restore_state(state["clock"])
        entries: list[tuple[float, int, int, Event]] = []
        for seq, (kind, time, payload) in state["queue_entries"]:
            event = _decode_event(kind, time, payload)
            entries.append((event.time, event.priority, seq, event))
        self.queue.restore_entries(entries, state["queue_next_seq"])
        self._scheduled_checkpoint = state["scheduled_checkpoint"]
        self._finished = state["finished"]
