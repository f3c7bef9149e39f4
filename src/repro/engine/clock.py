"""Virtual time primitives: the simulation clock and a check throttle.

Everything in the simulator runs against *virtual* time — timestamps
carried by trace records and events, never the wall clock — so replays
are deterministic and virtual hours cost only CPU.  :class:`SimClock`
is the single authority for "now" inside a
:class:`~repro.engine.kernel.SimulationKernel`: it only moves forward,
and a backwards move raises immediately instead of silently corrupting
the energy books (the invariant the auditor re-checks after the fact).

:class:`Throttle` packages the "earliest next allowed time" arithmetic
that recurring cheap checks need (the §V-D pattern-change triggers
evaluate per I/O but should only *act* a few times per break-even
period).  Callers used to hand-roll this with ad-hoc ``_next_check``
fields; routing it through one primitive keeps the comparison direction
and rearm convention identical everywhere.
"""

from __future__ import annotations

from repro.errors import ReplayError, ValidationError
from repro.units import Seconds

__all__ = ["SimClock", "Throttle"]


class SimClock:
    """Monotonic virtual clock owned by the simulation kernel."""

    __slots__ = ("_now",)

    def __init__(self, start: Seconds = 0.0) -> None:
        if start < 0.0:
            raise ValidationError(
                f"clock cannot start before t=0, got {start!r}"
            )
        self._now = start

    @property
    def now(self) -> Seconds:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, to: Seconds) -> Seconds:
        """Move the clock forward to ``to`` and return it.

        Raises :class:`~repro.errors.ReplayError` if ``to`` lies in the
        past — virtual time never rewinds; an event or record arriving
        out of order is a bug at the source, not something to clamp.
        """
        if to < self._now:
            raise ReplayError(
                f"virtual time moved backwards: {to} after {self._now}"
            )
        self._now = to
        return to

    def __eq__(self, other: object) -> bool:
        """Clocks are equal when they read the same time."""
        return isinstance(other, SimClock) and other._now == self._now


class Throttle:
    """Virtual-time rate limiter for recurring cheap checks.

    A throttled check runs its guard (:meth:`ready`) on every
    opportunity but is expected to :meth:`arm` the throttle only when it
    actually acts, so at most one action happens per ``interval_seconds``
    of virtual time.  :meth:`defer_until` pushes the next opportunity to
    an explicit time (e.g. "not before the next scheduled checkpoint"),
    and :meth:`reset` re-opens the gate at ``now``.
    """

    __slots__ = ("interval_seconds", "next_allowed")

    def __init__(self, interval_seconds: Seconds) -> None:
        if interval_seconds <= 0.0:
            raise ValidationError(
                f"throttle interval must be positive, got {interval_seconds!r}"
            )
        self.interval_seconds = interval_seconds
        #: Earliest virtual time at which :meth:`ready` returns True.  A
        #: plain slot, so a per-I/O caller can compare against it without
        #: a call.
        self.next_allowed: Seconds = 0.0

    def ready(self, now: Seconds) -> bool:
        """Whether an action is allowed at virtual time ``now``."""
        return now >= self.next_allowed

    def arm(self, now: Seconds) -> None:
        """Record an action at ``now``; the gate re-opens one interval later."""
        self.next_allowed = now + self.interval_seconds

    def defer_until(self, time: Seconds) -> None:
        """Hold the gate closed until an explicit virtual ``time``."""
        self.next_allowed = time

    def reset(self, now: Seconds) -> None:
        """Re-open the gate at ``now`` (used at window starts)."""
        self.next_allowed = now

    def __eq__(self, other: object) -> bool:
        """Throttles are equal when their interval and gate agree.

        Exact on purpose: a restored throttle must be bit-identical.
        """
        return (
            isinstance(other, Throttle)
            and other.interval_seconds == self.interval_seconds  # check: ignore[R1]
            and other.next_allowed == self.next_allowed
        )
