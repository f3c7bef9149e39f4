"""The simulation kernel: one loop over two slots.

:class:`SimulationKernel` is the one dispatch site through which virtual
time passes.  The paper's manager wakes at two kinds of instants — the
end of each adaptive monitoring period (Algorithm 1) and the §III-B
power-sampling cadence — so the kernel keeps one slot for each, and
merges both with the time-ordered trace records:

* **the sample slot** — the power timeline's next boundary,
  ``timeline.next_sample_time`` (``math.inf`` without a timeline).  It
  needs no kernel state: only the kernel calls
  :meth:`~repro.monitoring.timeline.PowerTimeline.sample` during a run
  (check R8 flags any other caller), so the timeline's own cursor is
  the schedule;
* **the checkpoint slot** — the policy's next monitoring-period
  checkpoint, mirrored in one field by *synchronized polling*: policies
  expose ``next_checkpoint()`` (see
  :class:`repro.baselines.base.PowerPolicy`), and the kernel re-reads
  it at the only points the value can change, after each ``after_io``
  that ran and after each ``on_checkpoint``.  A moved checkpoint
  overwrites the field, so it can never fire at its stale time.  With a
  fault clock attached the slot runs fault bookkeeping first.

When several occurrences share a timestamp they fire in ascending
*class* — this table is the one place the boundary convention lives:

===================== ===== ==========================================
occurrence            class fires at equal timestamps…
===================== ===== ==========================================
timeline sample       0     first: a sample at a boundary reads the
                            energy books *before* any mutation there
fault bookkeeping     1     just before the checkpoint (battery and
                            outage accounting precede the decision)
policy checkpoint     2     before any I/O at the same instant: it
                            closes the window the record would open
trace record          3     last: application I/O lands after the
                            instant's control decisions
===================== ===== ==========================================

Trace records arrive as a pre-sorted
:class:`~repro.trace.columnar.ColumnarTrace` (any other record iterable
is packed into one first); before serving a record at ``ts`` the pump
fires every slot due at or before ``ts``, which costs two float
comparisons per record, and after serving it calls the policy's
``after_io`` only if ``ts`` has reached the policy's
:meth:`~repro.baselines.base.PowerPolicy.io_gate`, mirrored in a local
like the checkpoint.

The golden regression test (``tests/trace/test_replay_golden.py``)
pins this kernel bit-identical to the pre-kernel replayer for every
policy, with and without faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.actions.plan import ActionPlan
from repro.actions.records import FlushWriteDelay
from repro.capture import Snapshottable
from repro.engine.clock import SimClock
from repro.errors import ReplayError, UsageError
from repro.trace.columnar import FLAG_READ, FLAG_SEQUENTIAL, ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import PowerPolicy
    from repro.monitoring.timeline import PowerTimeline
    from repro.simulation import SimulationContext
    from repro.trace.records import LogicalIORecord

__all__ = ["ReplayOutcome", "SimulationKernel"]


def _as_columnar(records: Iterable[LogicalIORecord]) -> ColumnarTrace:
    """``records`` as a :class:`ColumnarTrace`, packing it if needed."""
    if isinstance(records, ColumnarTrace):
        return records
    return ColumnarTrace.from_records(records)


@dataclass(frozen=True)
class ReplayOutcome:
    """What :meth:`SimulationKernel.replay` measured about the window."""

    #: Number of trace records served.
    io_count: int
    #: Declared (or inferred) end of the measurement window, seconds.
    end: float
    #: Final settlement time — ``end`` or later if the tail flush ran past it.
    final: float


class SimulationKernel(Snapshottable):
    """Deterministic two-slot pump over one simulation context.

    A kernel drives one measurement window and is single-use for
    :meth:`replay` (exactly like the pre-kernel replayer, whose loop
    state lived in locals).  The caller is expected to have bound
    ``policy`` to ``context`` already; :class:`repro.trace.replay.TraceReplayer`
    does so and remains the public batch entry point.

    Its snapshot state is the clock, the checkpoint field and the
    finished flag; the sample slot is the timeline's own cursor, which
    the timeline snapshots.
    """

    _REBUILT = frozenset(
        {
            "context",
            "policy",
            "timeline",
            "_checkpoint_hooks",
            "_finish_hooks",
            "_record_hook",
        }
    )

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
        self._scheduled_checkpoint: float | None = None
        self._checkpoint_hooks: list[Callable[[float], None]] = []
        self._finish_hooks: list[Callable[[float], None]] = []
        self._record_hook: Callable[[int, float], None] | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # Hook surface
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
        with the cursor seeded at the boundary.  The application monitor
        indexes all of ``records`` and must hold exactly ``start_count``
        restored responses, else :class:`~repro.errors.SnapshotError`
        is raised before any record is served.  The replay prologue
        (``policy.on_start``, window begins) is deliberately **not**
        re-run: the restored checkpoint field, timeline and monitors
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
        return self._pump(_as_columnar(records), duration, start_count, start_ts)

    def _pump(
        self,
        trace: ColumnarTrace,
        duration: float | None,
        count: int,
        last_ts: float,
    ) -> ReplayOutcome:
        """The record loop: drive the simulation straight off columns.

        The application monitor is attached to the whole ``trace``; the
        loop serves its rows from ``count`` on.  Each record goes
        through the scalar I/O chain — controller ``submit``, the
        append of its response to the application monitor, and policy
        ``after_io`` for a record at or past the policy's
        :meth:`~repro.baselines.base.PowerPolicy.io_gate` — so no
        :class:`~repro.trace.records.LogicalIORecord` exists anywhere on
        the loop.  The kernel clock moves at each slot dispatch, before
        the record hook and at finish: nothing reads it in between.
        """
        context = self.context
        policy = self.policy
        timeline = self.timeline
        clock = self.clock
        hook = self._record_hook

        record = context.app_monitor.attach(trace, count)
        if count:
            trace = trace[count:]
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
        after_io = policy.after_io
        next_checkpoint = policy.next_checkpoint
        io_gate = policy.io_gate
        dispatch = self._dispatch_until

        # Local mirrors of the two slots and of the after-I/O gate: only
        # a dispatch moves the sample slot, and only a dispatch or an
        # ``after_io`` that ran moves the checkpoint or the gate.
        sample = math.inf if timeline is None else timeline.next_sample_time
        checkpoint = self._scheduled_checkpoint
        gate = io_gate()
        for ts, idx, offset, size, flag in zip(
            timestamps, item_index, offsets, sizes, flags
        ):
            if ts < last_ts:
                raise ReplayError(
                    f"trace not time-ordered: {ts} after {last_ts}"
                )
            last_ts = ts
            # Both slots precede a record at their own timestamp.
            if sample <= ts or (checkpoint is not None and checkpoint <= ts):
                dispatch(ts)
                checkpoint = self._scheduled_checkpoint
                gate = io_gate()
                if timeline is not None:
                    sample = timeline.next_sample_time
            item = items[idx]
            is_read = read_lut[flag]
            sequential = sequential_lut[flag]
            response = submit(ts, item, offset, size, is_read, sequential)
            record(response)
            count += 1
            if ts >= gate:
                after_io(ts, item, offset, size, is_read, sequential, response)
                checkpoint = self._scheduled_checkpoint = next_checkpoint()
                # The clock is not at ``ts`` here, so it cannot refuse a
                # checkpoint moved behind the record just served.
                if checkpoint is not None and checkpoint < ts:
                    raise ReplayError(
                        f"policy {policy.name!r} moved its checkpoint to "
                        f"{checkpoint}, before the record served at {ts}"
                    )
                gate = io_gate()
            if hook is not None:
                # A snapshot at this boundary captures the clock at ``ts``.
                clock.advance(ts)
                hook(count, ts)

        return self._finish_replay(count, last_ts, duration)

    def _begin_replay(self) -> None:
        """Shared replay prologue: window starts, initial checkpoint sync."""
        self.policy.on_start(0.0)
        self.context.app_monitor.begin_window(0.0)
        self.context.storage_monitor.begin_window(0.0)
        self._scheduled_checkpoint = self.policy.next_checkpoint()

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
    # Slot dispatch
    # ------------------------------------------------------------------

    def fire_timeline_sample(self, now: float) -> None:
        """Record the timeline boundary due at ``now``."""
        timeline = self.timeline
        if timeline is not None:
            timeline.sample(now)

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

    # No slot fires the next two; perfbench's probe list resolves them.
    def fire_flush_deadline(self, now: float) -> None:
        """Flush delayed writes whose deadline arrived at ``now``.

        Routed through the action executor so deadline flushes appear in
        the action log like every other mutation.
        """
        self.context.executor.apply(now, ActionPlan([FlushWriteDelay()]))

    def fire_action_apply(self, now: float, plan: ActionPlan) -> None:
        """Apply a deferred action plan through the context executor."""
        self.context.executor.apply(now, plan)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch_until(self, bound: float) -> None:
        """Fire every slot due at or before ``bound``, in class order.

        A sample fires first when it is due no later than the
        checkpoint; otherwise the checkpoint fires, with fault
        bookkeeping ahead of it when a fault clock is attached.
        """
        timeline = self.timeline
        clock = self.clock
        bookkeeping = self.context.fault_clock is not None
        while True:
            sample = math.inf if timeline is None else timeline.next_sample_time
            checkpoint = self._scheduled_checkpoint
            if checkpoint is None:
                checkpoint = math.inf
            if sample <= bound and sample <= checkpoint:
                clock.advance(sample)
                self.fire_timeline_sample(sample)
            elif checkpoint <= bound:
                clock.advance(checkpoint)
                if bookkeeping:
                    self.fire_fault_bookkeeping(checkpoint)
                self.fire_policy_checkpoint(checkpoint)
            else:
                return

    def _drain_tail(self, end: float) -> None:
        """Fire every remaining checkpoint scheduled at or before ``end``.

        Timeline boundaries *beyond* the last fired checkpoint do not
        fire here on purpose: the pre-kernel engine recorded them inside
        ``timeline.finish`` after the tail flush, and so does
        :meth:`replay`.
        """
        while (
            self._scheduled_checkpoint is not None
            and self._scheduled_checkpoint <= end
        ):
            self._dispatch_until(self._scheduled_checkpoint)
