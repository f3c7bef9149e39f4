"""Disk-enclosure model: power-state machine, queueing, energy timeline.

A :class:`DiskEnclosure` is the power-saving unit of the paper's storage
model (§II-A).  It serves I/O through a single-server queue whose service
rate is the enclosure's IOPS capacity (random or sequential), and moves
through the power states of :class:`~repro.storage.power.PowerState`:

``ACTIVE ⇄ IDLE → SPIN_DOWN → OFF → SPIN_UP → IDLE/ACTIVE``

Spin-down happens automatically after :attr:`spin_down_timeout` seconds of
idleness, but **only** when the active power policy has called
:meth:`enable_power_off` — this is how "apply the power-off function to
only the cold disk enclosures" (paper §IV-G) is expressed.

Energy is integrated exactly: every state occupancy interval contributes
``state wattage × duration`` joules, accumulated per state, so average
power and the paper's power-consumption figures fall out of the timeline.
All times are virtual seconds; the object is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.capture import Snapshottable
from repro.errors import (
    AuditError,
    EnclosureUnavailableError,
    PowerStateError,
    SpinUpFailedError,
    ValidationError,
)
from repro.storage.power import LEGAL_TRANSITIONS, PowerModel, PowerState
from repro.units import Bytes, Joules, Seconds, Watts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.clock import FaultClock
    from repro.faults.plan import EnclosureOutage

# The power states as module constants: on CPython 3.11 each
# ``PowerState.X`` load goes through ``EnumType.__getattr__``, about ten
# times the cost of a global load, and the per-I/O methods below test
# the state several times per served I/O.
_ACTIVE = PowerState.ACTIVE
_IDLE = PowerState.IDLE
_SPIN_DOWN = PowerState.SPIN_DOWN
_OFF = PowerState.OFF
_SPIN_UP = PowerState.SPIN_UP

#: Legal source states of the two edges every served I/O takes in place
#: (into ACTIVE when service starts, into IDLE when the queue drains),
#: read off :data:`LEGAL_TRANSITIONS` once so the two cannot drift.
_INTO_ACTIVE = frozenset(s for s, t in LEGAL_TRANSITIONS if t is _ACTIVE)
_INTO_IDLE = frozenset(s for s, t in LEGAL_TRANSITIONS if t is _IDLE)


@dataclass(frozen=True)
class IOResult:
    """Outcome of submitting a batch of I/Os to an enclosure.

    ``arrival`` is when the request was issued, ``start`` when service
    began (after any queueing and spin-up wait), ``completion`` when the
    last I/O of the batch finished, and ``count`` the batch size.
    """

    arrival: Seconds
    start: Seconds
    completion: Seconds
    count: int

    @property
    def response_time(self) -> Seconds:
        """Response time of the whole batch (completion − arrival)."""
        return self.completion - self.arrival

    @property
    def wait_time(self) -> Seconds:
        """Time spent waiting before service began (queue + spin-up)."""
        return self.start - self.arrival

    @property
    def mean_response_time(self) -> Seconds:
        """Mean per-I/O response assuming I/Os complete evenly in service.

        The i-th of ``count`` I/Os completes at
        ``start + (i/count) × service``; averaging gives
        ``wait + service × (count + 1) / (2 × count)``.
        """
        service = self.completion - self.start
        return self.wait_time + service * (self.count + 1) / (2 * self.count)


class DiskEnclosure(Snapshottable):
    """One disk enclosure: capacity, service queue, power-state timeline.

    Parameters
    ----------
    name:
        Stable identifier (e.g. ``"enc-03"``) used in traces and reports.
    power_model:
        Wattage table; defaults are calibrated to the paper's testbed.
    iops_random / iops_sequential:
        Service capacities (I/Os per second) for random and sequential
        request streams.
    capacity_bytes:
        Usable volume size (paper Table II: 1.7 TB).
    spin_down_timeout:
        Idle seconds before an automatic spin-down when power-off is
        enabled (paper: equal to the break-even time, 52 s).

    Its snapshot state is the settled timeline and every accumulated
    book; the fault clock, its outage windows for this enclosure and the
    ``_watts_by_state`` table derived from the power model are rebuilt,
    never stored.  Capture does not
    settle the timeline: it happens at a record boundary, where the
    caller controls exactly what has been settled.
    """

    __slots__ = (
        "name",
        "power_model",
        "iops_random",
        "iops_sequential",
        "capacity_bytes",
        "spin_down_timeout",
        "_clock",
        "_state",
        "_idle_since",
        "_busy_until",
        "_transition_end",
        "_power_off_enabled",
        "_hold_awake_until",
        "_external_energy",
        "_watts_by_state",
        "_energy_by_state",
        "_time_by_state",
        "spin_up_count",
        "spin_down_count",
        "io_count",
        "read_count",
        "write_count",
        "last_io_time",
        "spin_up_events",
        "_fault_clock",
        "outage_windows",
        "_spin_up_failing",
        "spin_up_failure_times",
    )

    _REBUILT = frozenset({"_fault_clock", "outage_windows", "_watts_by_state"})

    _LOGS = frozenset({"spin_up_events", "spin_up_failure_times"})

    def __init__(
        self,
        name: str,
        power_model: PowerModel | None = None,
        iops_random: float = 900.0,
        iops_sequential: float = 2800.0,
        capacity_bytes: Bytes = 0,
        spin_down_timeout: Seconds = 52.0,
    ) -> None:
        if iops_random <= 0 or iops_sequential <= 0:
            raise ValidationError("IOPS capacities must be positive")
        if spin_down_timeout < 0:
            raise ValidationError("spin_down_timeout must be non-negative")
        self.name = name
        self.power_model = power_model or PowerModel()
        self.iops_random = iops_random
        self.iops_sequential = iops_sequential
        self.capacity_bytes = capacity_bytes
        self.spin_down_timeout = spin_down_timeout

        self._clock: Seconds = 0.0
        self._state = _IDLE
        self._idle_since: Seconds = 0.0
        self._busy_until: Seconds = 0.0
        self._transition_end: Seconds = 0.0
        self._power_off_enabled = False

        self._hold_awake_until: Seconds = 0.0
        self._external_energy: Joules = 0.0
        #: Per-state wattage, precomputed once: :meth:`_accrue` runs
        #: several times per served I/O and must not rebuild the power
        #: model's lookup table each time (the model is frozen, so the
        #: snapshot can never go stale).
        self._watts_by_state: dict[PowerState, Watts] = {
            state: self.power_model.watts(state) for state in PowerState
        }
        self._energy_by_state: dict[PowerState, Joules] = {
            state: 0.0 for state in PowerState
        }
        self._time_by_state: dict[PowerState, Seconds] = {
            state: 0.0 for state in PowerState
        }
        self.spin_up_count = 0
        self.spin_down_count = 0
        self.io_count = 0
        self.read_count = 0
        self.write_count = 0
        self.last_io_time: Seconds | None = None
        #: Spin-up events as (time requested, wait imposed) — used by the
        #: runtime trigger logic (paper §V-D).
        self.spin_up_events: list[Seconds] = []

        #: Fault oracle (:mod:`repro.faults`); ``None`` outside fault runs.
        self._fault_clock: FaultClock | None = None
        #: This enclosure's outage windows under that clock, bound once
        #: by :meth:`set_fault_clock`.  Empty, the outage questions are
        #: never asked: the answer would be "none" at every instant.  The
        #: controller reads it to gate its emergency write buffer.
        self.outage_windows: tuple[EnclosureOutage, ...] = ()
        #: Set while the in-progress spin-up is fated to fail.
        self._spin_up_failing = False
        #: Virtual times at which injected spin-up attempts failed —
        #: consulted by the degraded-mode gate in the policies.
        self.spin_up_failure_times: list[Seconds] = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Seconds:
        """Time up to which the energy timeline has been settled."""
        return self._clock

    @property
    def state(self) -> PowerState:
        """Power state as of :attr:`clock`."""
        return self._state

    @property
    def power_off_enabled(self) -> bool:
        """Whether the policy allows this enclosure to spin down."""
        return self._power_off_enabled

    @property
    def busy_until(self) -> Seconds:
        """Completion time of the last queued I/O."""
        return self._busy_until

    def energy_joules(self, state: PowerState | None = None) -> Joules:
        """Energy accumulated so far, total or for one state.

        The total includes externally-charged energy (throttled
        background transfers accounted outside the state machine).
        """
        if state is not None:
            return self._energy_by_state[state]
        return sum(self._energy_by_state.values()) + self._external_energy

    def time_in_state(self, state: PowerState) -> Seconds:
        """Seconds spent in ``state`` so far."""
        return self._time_by_state[state]

    def average_watts(self) -> Watts:
        """Average power draw over the settled timeline."""
        if self._clock <= 0:
            return self.power_model.watts(self._state)
        return self.energy_joules() / self._clock

    # ------------------------------------------------------------------
    # policy control
    # ------------------------------------------------------------------
    def enable_power_off(self, now: Seconds) -> None:
        """Allow this enclosure to spin down after the idle timeout."""
        self.settle(now)
        if not self._power_off_enabled:
            self._power_off_enabled = True
            # Restart the idle clock so a long-idle enclosure does not
            # instantly vanish at the exact policy switch instant.
            if self._state is _IDLE:
                self._idle_since = max(self._idle_since, now - 0.0)

    def disable_power_off(self, now: Seconds) -> None:
        """Forbid spinning down.  An already-off enclosure stays off until
        its next I/O (spinning every enclosure up eagerly would charge the
        policy change itself, which no evaluated method does)."""
        self.settle(now)
        self._power_off_enabled = False

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def set_fault_clock(self, clock: "FaultClock") -> None:
        """Attach the simulation's fault oracle (:mod:`repro.faults`)."""
        self._fault_clock = clock
        self.outage_windows = clock.outage_windows(self.name)

    # ------------------------------------------------------------------
    # timeline
    # ------------------------------------------------------------------
    def _transition(self, target: PowerState, at: Seconds) -> None:
        """Move to ``target``, auditing against the legal transition graph.

        Every state change funnels through here so that fault injection
        (which adds paths like a failed spin-up) can never push the
        machine across an edge that :data:`~repro.storage.power.LEGAL_TRANSITIONS`
        does not contain — that would be a simulator bug and raises
        :class:`~repro.errors.AuditError` instead of silently clamping.
        The two edges every served I/O takes (IDLE→ACTIVE when service
        starts, ACTIVE→IDLE when the queue drains) are taken in place by
        :meth:`settle` and :meth:`submit_one`, with the same truth table
        (``_INTO_ACTIVE`` / ``_INTO_IDLE`` hold the graph's legal sources
        of those two targets) and the same error, so the audit stays on
        in the hot path without this call frame.
        """
        if (self._state, target) not in LEGAL_TRANSITIONS:
            raise self._illegal_transition(target, at)
        self._state = target

    def _illegal_transition(self, target: PowerState, at: Seconds) -> AuditError:
        return AuditError(
            f"{self.name}: illegal power-state transition "
            f"{self._state.value} -> {target.value} at t={at:.3f}s"
        )

    def _accrue(self, state: PowerState, duration: Seconds) -> None:
        if duration < 0:
            raise PowerStateError(
                f"negative accrual of {duration} s in state {state} "
                f"on {self.name}"
            )
        self._energy_by_state[state] += self._watts_by_state[state] * duration
        self._time_by_state[state] += duration

    def settle(self, now: Seconds) -> None:
        """Advance the energy timeline to ``now``.

        Idempotent for ``now <= clock``.  Handles ACTIVE→IDLE when the
        queue drains, and IDLE→SPIN_DOWN→OFF when power-off is enabled and
        the idle timeout elapses.
        """
        if now <= self._clock:
            return
        # The ACTIVE and IDLE branches inline :meth:`_accrue` (including
        # its negative-duration audit): they run a couple of times per
        # served I/O, and the dict/attribute traffic through hoisted
        # locals is what keeps the batched pump's frame count down.
        energy = self._energy_by_state
        time_in = self._time_by_state
        watts = self._watts_by_state
        active = _ACTIVE
        idle = _IDLE
        while self._clock < now:
            if self._state is active:
                busy_until = self._busy_until
                end = busy_until if busy_until < now else now
                duration = end - self._clock
                if duration < 0:
                    raise PowerStateError(
                        f"negative accrual of {duration} s in state "
                        f"{active} on {self.name}"
                    )
                energy[active] += watts[active] * duration
                time_in[active] += duration
                self._clock = end
                if end >= busy_until:
                    # _transition(idle, end), in place.
                    if self._state not in _INTO_IDLE:
                        raise self._illegal_transition(idle, end)
                    self._state = idle
                    self._idle_since = end
            elif self._state is idle:
                end = now
                spins_down = False
                if self._power_off_enabled:
                    spin_at = max(
                        self._idle_since + self.spin_down_timeout,
                        self._hold_awake_until,
                    )
                    if spin_at <= now:
                        end = spin_at
                        spins_down = True
                duration = end - self._clock
                if duration < 0:
                    raise PowerStateError(
                        f"negative accrual of {duration} s in state "
                        f"{idle} on {self.name}"
                    )
                energy[idle] += watts[idle] * duration
                time_in[idle] += duration
                self._clock = end
                if spins_down:
                    self._begin_spin_down()
            elif self._state is _SPIN_DOWN:
                end = min(now, self._transition_end)
                self._accrue(_SPIN_DOWN, end - self._clock)
                self._clock = end
                if self._clock >= self._transition_end:
                    self._transition(_OFF, self._clock)
            elif self._state is _OFF:
                self._accrue(_OFF, now - self._clock)
                self._clock = now
            elif self._state is _SPIN_UP:
                end = min(now, self._transition_end)
                self._accrue(_SPIN_UP, end - self._clock)
                self._clock = end
                if self._clock >= self._transition_end:
                    if self._spin_up_failing:
                        # Injected transient failure: the motor spins back
                        # down having burned the attempt's time and energy.
                        self._spin_up_failing = False
                        self._transition(_OFF, self._clock)
                        self.spin_up_failure_times.append(self._clock)
                    else:
                        self._transition(_IDLE, self._clock)
                        self._idle_since = self._clock
            else:  # pragma: no cover - enum is closed
                raise PowerStateError(f"unknown state {self._state}")

    def _begin_spin_down(self) -> None:
        self._transition(_SPIN_DOWN, self._clock)
        self._transition_end = self._clock + self.power_model.spin_down_seconds
        self.spin_down_count += 1

    def _ensure_on(self) -> None:
        """Walk the timeline forward until the enclosure is spinning.

        May advance :attr:`clock` past the caller's ``now`` — the extra
        time is the spin-up wait the arriving I/O must absorb.

        Under fault injection a spin-up attempt may fail: the attempt's
        full time and energy are charged, the machine returns to OFF, and
        :class:`~repro.errors.SpinUpFailedError` is raised for the
        controller's retry logic.  Failure streaks are finite by
        construction, so retrying eventually succeeds.
        """
        if self._state is _SPIN_DOWN:
            # A request arrived mid-spin-down: the platters must stop
            # before they can spin up again.
            self.settle(self._transition_end)
        if self._state is _OFF:
            verdict = None
            if self._fault_clock is not None:
                verdict = self._fault_clock.spin_up_attempt(
                    self.name, self._clock
                )
            self._transition(_SPIN_UP, self._clock)
            seconds = self.power_model.spin_up_seconds
            if verdict is not None and verdict.seconds_multiplier > 1.0:
                seconds *= verdict.seconds_multiplier
            self._transition_end = self._clock + seconds
            self.spin_up_count += 1
            self.spin_up_events.append(self._clock)
            if verdict is not None and verdict.fails:
                self._spin_up_failing = True
                failed_at = self._clock
                self.settle(self._transition_end)
                raise SpinUpFailedError(self.name, failed_at)
        if self._state is _SPIN_UP:
            self.settle(self._transition_end)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def service_time(self, count: int, sequential: bool) -> Seconds:
        """Pure service time for a batch of ``count`` I/Os."""
        if count <= 0:
            raise ValidationError("count must be positive")
        rate = self.iops_sequential if sequential else self.iops_random
        return count / rate

    def submit(
        self,
        now: Seconds,
        count: int = 1,
        read: bool = True,
        sequential: bool = False,
    ) -> IOResult:
        """Submit a batch of I/Os arriving at ``now``; returns timing.

        Validates the batch and serves it through :meth:`submit_one` at
        the IOPS service time of :meth:`service_time`.
        """
        service = self.service_time(count, sequential)
        start = self.submit_one(now, service, count, read)
        return IOResult(
            arrival=now, start=start, completion=start + service, count=count
        )

    def submit_one(
        self, now: Seconds, seconds: Seconds, count: int, read: bool
    ) -> Seconds:
        """Queue ``count`` I/Os arriving at ``now`` for ``seconds`` of service.

        Returns the service start; service completes at ``start +
        seconds``.  This is the one service body: the controller calls it
        for every application I/O, and :meth:`submit` and :meth:`occupy`
        validate their arguments and call it.  It handles spin-up (the
        wait is charged to the request), queueing behind earlier
        requests, and the ACTIVE energy of the service itself; ``now``
        may be earlier than the settled clock, and the request then
        queues at that clock.  On an enclosure with outage windows it
        refuses service inside one (at the settled clock, and again at
        the start if the queue moved it) and records the start for the
        outage-violation audit; without windows neither question is
        asked, since both would answer "no outage".  :meth:`_ensure_on`
        draws the spin-up fault whenever a fault clock is attached.
        """
        if now > self._clock:
            self.settle(now)
        state = self._state
        if state is not _ACTIVE and state is not _IDLE:
            # After settle(now) the clock is max(now, clock): refuse
            # there before the spin-up draws its fault.
            at = self._clock
            if self.outage_windows:
                self._refuse_in_outage(at)
            self._ensure_on()
        start = now
        if self._clock > start:
            start = self._clock
        if self._busy_until > start:
            start = self._busy_until
        if self.outage_windows:
            if state is _ACTIVE or state is _IDLE:
                # No spin-up ran, so the clock is still the settled one,
                # and finding the start moved nothing: refusing here is
                # refusing first.
                at = self._clock
                self._refuse_in_outage(at)
            if start != at:
                self._refuse_in_outage(start)
            self._fault_clock.note_service(self.name, start)
        # settle(start) is a no-op unless the queue pushed the start past
        # the settled clock (start >= clock by construction).
        if start > self._clock:
            self.settle(start)
        completion = start + seconds
        if self._state is not _ACTIVE:
            # _transition(ACTIVE, start), in place.
            if self._state not in _INTO_ACTIVE:
                raise self._illegal_transition(_ACTIVE, start)
            self._state = _ACTIVE
        if completion > self._busy_until:
            self._busy_until = completion
        self.io_count += count
        if read:
            self.read_count += count
        else:
            self.write_count += count
        self.last_io_time = now
        return start

    def background_transfer(
        self,
        start: Seconds,
        duration: Seconds,
        busy_seconds: Seconds,
        count: int,
        read: bool,
    ) -> None:
        """Charge a throttled background transfer (data migration, §V-A).

        The transfer runs interleaved with application I/O over
        ``[start, start + duration]``: the enclosure is kept awake for
        that span (it cannot spin down mid-copy) and the transfer's
        ACTIVE-over-IDLE energy delta for ``busy_seconds`` of actual
        platter time is charged outside the state machine — it never
        occupies the service queue, which is exactly what "controls data
        transfer I/O throughputs so as to not influence the
        applications' performance" means.
        """
        if duration < 0 or busy_seconds < 0:
            raise ValidationError("duration and busy_seconds must be non-negative")
        if count <= 0:
            raise ValidationError("count must be positive")
        # Entirely lazy: the transfer may be scheduled in the future (the
        # action executor serializes moves), so the state machine is not
        # advanced here — that would turn the settled clock into a queue
        # barrier for earlier application I/O.  The hold-awake window is
        # honoured lazily by :meth:`settle`'s idle branch.
        self._hold_awake_until = max(self._hold_awake_until, start + duration)
        delta = self.power_model.active_watts - self.power_model.idle_watts
        self._external_energy += delta * busy_seconds
        self.io_count += count
        if read:
            self.read_count += count
        else:
            self.write_count += count
        if self.last_io_time is None or start > self.last_io_time:
            self.last_io_time = start

    def occupy(
        self,
        now: Seconds,
        seconds: Seconds,
        count: int = 1,
        read: bool = True,
    ) -> IOResult:
        """Occupy the enclosure for a bulk transfer of known duration.

        Bulk operations (preload bursts, write-delay flushes, migration
        copies) are bandwidth-dominated rather than IOPS-dominated, so the
        caller computes their duration from bytes / bandwidth and this
        method validates it and serves it through :meth:`submit_one`.
        """
        if seconds < 0:
            raise ValidationError("seconds must be non-negative")
        if count <= 0:
            raise ValidationError("count must be positive")
        start = self.submit_one(now, seconds, count, read)
        return IOResult(
            arrival=now, start=start, completion=start + seconds, count=count
        )

    def _refuse_in_outage(self, at: Seconds) -> None:
        """Refuse service at ``at`` if it falls inside an outage window.

        Called before any service state is mutated, first at the settled
        clock and again at the service start when the queue (or a
        spin-up wait) pushed it past that instant — into a window that
        may have opened after arrival.  The controller retries past the
        window's end.
        """
        outage = self._fault_clock.outage_at(self.name, at)
        if outage is not None:
            raise EnclosureUnavailableError(self.name, at, outage.end)

    def finish(self, now: Seconds) -> None:
        """Settle the timeline to the end of the run."""
        self.settle(max(now, self._clock))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskEnclosure({self.name!r}, state={self._state.value}, "
            f"clock={self._clock:.1f}, ios={self.io_count})"
        )
