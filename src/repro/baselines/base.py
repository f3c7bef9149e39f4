"""Power-policy interface shared by the proposed method and baselines.

A :class:`PowerPolicy` plugs into the simulation kernel
(:mod:`repro.engine`): it asks for control at *checkpoints* (the end of
its monitoring periods) and may also react to individual I/Os (the
proposed method's §V-D triggers; DDR's on-access block migration).  All
four evaluated methods — the proposed energy-efficient storage
management, PDC, DDR, and no-power-saving — implement this interface,
so the experiment runner treats them uniformly.

Checkpoint contract under the kernel: :meth:`PowerPolicy.next_checkpoint`
is re-read at the only points its value may change — once at start
(after :meth:`PowerPolicy.on_start`), after every
:meth:`PowerPolicy.after_io` that ran, and after every
:meth:`PowerPolicy.on_checkpoint` — and mirrored in the kernel's one
checkpoint slot.  :meth:`PowerPolicy.io_gate` is mirrored the same
way: the kernel calls ``after_io`` only for records at or past it.  A
policy must advance its checkpoint strictly past ``now`` inside
``on_checkpoint``
(the kernel raises :class:`~repro.errors.ReplayError` otherwise) and
should only ever schedule into the future; checkpoints in the past
would rewind the kernel's monotonic clock.
"""

from __future__ import annotations

import abc
import math

from repro.actions.executor import ActionExecutor
from repro.actions.plan import ActionPlan
from repro.actions.records import ActionOutcome, SetPowerOffEnabled
from repro.capture import Snapshottable
from repro.errors import UsageError
from repro.simulation import SimulationContext
from repro.storage.enclosure import DiskEnclosure


class PowerPolicy(abc.ABC, Snapshottable):
    """Base class for storage power-saving policies.

    Policies are *planners*: they decide, build
    :class:`~repro.actions.plan.ActionPlan` values, and apply them
    through the context's
    :class:`~repro.actions.executor.ActionExecutor` — never by calling
    controller mutators directly (check R9).

    A policy's snapshot state is every attribute but its context.  A
    restored policy is ``bind()``-ed to the rebuilt context but its
    :meth:`on_start` is **not** re-run: the captured state already
    reflects it.
    """

    __slots__ = (
        "context",
        "determinations",
    )

    _REBUILT = frozenset({"context"})

    #: Human-readable policy name used in reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self.context: SimulationContext | None = None
        #: Number of data-placement determinations performed — the paper
        #: reports this count for every method (§VII-D).
        self.determinations = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, context: SimulationContext) -> None:
        """Attach the policy to a simulation (called once, before start)."""
        self.context = context

    def _require_context(self) -> SimulationContext:
        if self.context is None:
            raise UsageError(f"policy {self.name!r} is not bound to a context")
        return self.context

    def on_start(self, now: float) -> None:
        """Called once at replay start (time ``now``, usually 0)."""

    # ------------------------------------------------------------------
    # executor access (repro.actions)
    # ------------------------------------------------------------------
    def executor(self) -> ActionExecutor:
        """The bound context's action executor — the only mutation path."""
        return self._require_context().executor

    @property
    def degraded_cooldowns(self) -> int:
        """Times the degraded-mode gate vetoed a power-off enablement.

        The gate (and its count) lives on the executor; unbound policies
        report zero.
        """
        if self.context is None:
            return 0
        return self.context.executor.degraded_cooldowns

    def apply_power_off(
        self, enclosure: DiskEnclosure, now: float, enable: bool
    ) -> bool:
        """Enable/disable power-off on one enclosure through the
        executor's degraded-mode gate; returns whether power-off ended
        up enabled.

        Every policy routes its power-off decisions through here (or
        puts the equivalent :class:`SetPowerOffEnabled` action in a
        larger plan).  When an enclosure's recent spin-up failures reach
        the configured threshold the gate vetoes enablement for a
        cool-down window; without fault injection the gate is a
        transparent pass-through, so zero-fault behaviour is unchanged.
        """
        report = self.executor().apply(
            now, ActionPlan([SetPowerOffEnabled(enclosure.name, enable)])
        )
        record = report.records[0]
        return enable and record.outcome is ActionOutcome.APPLIED

    @abc.abstractmethod
    def next_checkpoint(self) -> float | None:
        """Next time the policy wants control, or None for never.

        The kernel keeps one live checkpoint event mirroring this value;
        returning a new time (or None) from here takes effect at the
        next sync point (after an ``after_io`` that ran, or after
        ``on_checkpoint``).
        """

    @abc.abstractmethod
    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """End of a monitoring period: analyse, plan, apply.

        Must leave :meth:`next_checkpoint` strictly greater than ``now``
        (or None); the kernel enforces this to rule out checkpoint
        storms that would stall virtual time.  May return the
        :class:`~repro.actions.plan.ActionPlan` the run applied (for
        observability); the kernel ignores the value.
        """

    def after_io(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
        response_time: float,
    ) -> None:
        """Called after an application I/O has been served.

        The kernel calls it only for a record whose timestamp is at or
        past :meth:`io_gate`, and re-reads the checkpoint and the gate
        after each call.  The default does nothing.
        """

    def io_gate(self) -> float:
        """Earliest record timestamp at which :meth:`after_io` can act.

        :meth:`after_io` must change no state for a record stamped
        before the gate, so the kernel skips the call (and the
        checkpoint re-sync after it).  The kernel re-reads the gate
        where it re-reads the checkpoint: after each ``after_io`` that
        ran and after each slot dispatch.  The default is ``math.inf``
        (never call) for a policy that does not override
        :meth:`after_io` and ``-math.inf`` (call on every record) for
        one that does.
        """
        if type(self).after_io is PowerPolicy.after_io:
            return math.inf
        return -math.inf

    def on_end(self, now: float) -> None:
        """Called once after the last record, before final settlement."""
