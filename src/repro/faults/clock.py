"""Runtime fault oracle consulted by the storage layer.

One :class:`FaultClock` instance per simulation wraps a
:class:`~repro.faults.plan.FaultPlan` and answers, in virtual time, the
questions the storage layer asks at its injection points:

* :meth:`FaultClock.spin_up_attempt` — from
  :meth:`~repro.storage.enclosure.DiskEnclosure._ensure_on`: does this
  spin-up attempt fail, and how slow is it?
* :meth:`FaultClock.outage_at` — from enclosure
  ``submit_one``/``submit``/``occupy`` and the controller's routing
  logic: is this enclosure inside an injected outage window right now?
  An enclosure asks it only if :meth:`FaultClock.outage_windows`, bound
  once when the clock is attached, gave it any windows.
* :meth:`FaultClock.battery_failure_time` — from the controller's
  virtual-time hook (:meth:`~repro.storage.controller.StorageController.on_time`,
  which the kernel's checkpoint slot runs just before each policy
  checkpoint): has the cache battery failed yet?
* :meth:`FaultClock.migration_abort` — from
  :meth:`~repro.storage.controller.StorageController.migrate_item`:
  should this move abort?

The clock also keeps the audit trail for the fault-aware invariants:
:attr:`FaultClock.outage_violations` records any I/O whose service
*started* inside an outage window — the
:class:`~repro.devtools.audit.InvariantAuditor` asserts it stays empty.

All state transitions here are driven by explicit calls with virtual
timestamps, never wall-clock time, so replays are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capture import Snapshottable
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    FaultPlan,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)
from repro.units import Seconds


@dataclass(frozen=True)
class SpinUpVerdict:
    """Outcome of consulting the clock for one spin-up attempt."""

    fails: bool = False
    seconds_multiplier: float = 1.0


@dataclass
class _EnclosureFaultState:
    """Mutable per-enclosure counters for spin-up fault draws."""

    attempts: int = 0
    cycles: int = 0
    streak_remaining: int = 0


class FaultClock(Snapshottable):
    """Deterministic per-run oracle over one :class:`FaultPlan`.

    Its snapshot state is the draw cursors and consumed-event sets; the
    plan is immutable and travels in the run spec, and its index is
    rebuilt by construction.
    """

    __slots__ = (
        "plan",
        "_outages",
        "_battery_failure_time",
        "_states",
        "_consumed_spin_up_events",
        "_consumed_aborts",
        "outage_violations",
        "spin_up_failures_injected",
        "migration_aborts_injected",
    )

    _REBUILT = frozenset({"plan", "_outages", "_battery_failure_time"})

    _LOGS = frozenset({"outage_violations"})

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        # The plan is immutable, so the questions asked on every I/O are
        # answered from an index built once here.  Derived data: rebuilt
        # by construction on resume, never part of :meth:`snapshot_state`.
        outages: dict[str, list[EnclosureOutage]] = {}
        battery_times: list[Seconds] = []
        for event in self.plan.events:
            if isinstance(event, EnclosureOutage):
                outages.setdefault(event.enclosure, []).append(event)
            elif isinstance(event, CacheBatteryFailure):
                battery_times.append(event.time)
        #: Outage windows per enclosure, in plan order.
        self._outages: dict[str, tuple[EnclosureOutage, ...]] = {
            name: tuple(windows) for name, windows in outages.items()
        }
        self._battery_failure_time: Seconds | None = (
            min(battery_times) if battery_times else None
        )
        self._states: dict[str, _EnclosureFaultState] = {}
        self._consumed_spin_up_events: set[int] = set()
        self._consumed_aborts: set[int] = set()
        #: Audit trail: descriptions of I/Os whose service started inside
        #: an outage window.  Must stay empty; the InvariantAuditor checks.
        self.outage_violations: list[str] = []
        #: Total failed spin-up attempts injected so far.
        self.spin_up_failures_injected: int = 0
        #: Total migration aborts injected so far.
        self.migration_aborts_injected: int = 0

    def spin_up_attempt(self, enclosure: str, now: Seconds) -> SpinUpVerdict:
        """Consume one spin-up attempt and return its injected outcome.

        A new *cycle* starts whenever the previous attempt succeeded (or
        this is the first ever attempt).  Scheduled
        :class:`SpinUpFailure` events are one-shot and consumed by the
        first matching cycle; the probabilistic model is consulted only
        when no scheduled event fires.  Failure streaks are finite by
        construction, so callers may retry until success.
        """
        state = self._states.setdefault(enclosure, _EnclosureFaultState())
        state.attempts += 1
        if state.streak_remaining > 0:
            state.streak_remaining -= 1
            fails = True
        else:
            failures = 0
            for index, event in enumerate(self.plan.events):
                if (
                    isinstance(event, SpinUpFailure)
                    and index not in self._consumed_spin_up_events
                    and event.enclosure == enclosure
                    and now >= event.after
                ):
                    self._consumed_spin_up_events.add(index)
                    failures += event.failures
            if failures == 0 and self.plan.model is not None:
                failures = self.plan.model.spin_up_failures(
                    enclosure, state.cycles
                )
            state.cycles += 1
            if failures > 0:
                state.streak_remaining = failures - 1
                fails = True
            else:
                fails = False
        multiplier = 1.0
        for event in self.plan.events:
            if (
                isinstance(event, SlowSpinUp)
                and event.enclosure == enclosure
                and event.start <= now < event.end
            ):
                multiplier = max(multiplier, event.multiplier)
        if self.plan.model is not None:
            multiplier = max(
                multiplier,
                self.plan.model.spin_up_multiplier(enclosure, state.attempts),
            )
        if fails:
            self.spin_up_failures_injected += 1
        return SpinUpVerdict(fails=fails, seconds_multiplier=multiplier)

    def outage_windows(self, enclosure: str) -> tuple[EnclosureOutage, ...]:
        """The enclosure's outage windows in plan order; ``()`` if none.

        With none, :meth:`outage_at` answers ``None`` at every instant
        and :meth:`note_service` records nothing, so an enclosure binds
        this once and asks neither question per I/O.
        """
        return self._outages.get(enclosure, ())

    def outage_at(self, enclosure: str, now: Seconds) -> EnclosureOutage | None:
        """The outage window covering ``now``, if any.

        With overlapping windows the one ending last wins (the first in
        plan order among equal ends), so a caller waiting until ``.end``
        makes progress past the whole cluster.
        """
        windows = self._outages.get(enclosure)
        if windows is None:
            return None
        found: EnclosureOutage | None = None
        for event in windows:
            if event.start <= now < event.end and (
                found is None or event.end > found.end
            ):
                found = event
        return found

    @property
    def battery_failure_time(self) -> Seconds | None:
        """Virtual time of the earliest scheduled battery failure."""
        return self._battery_failure_time

    def migration_abort(self, item_id: str, now: Seconds) -> bool:
        """Consume a matching one-shot :class:`MigrationAbort`, if any."""
        for index, event in enumerate(self.plan.events):
            if (
                isinstance(event, MigrationAbort)
                and index not in self._consumed_aborts
                and event.item_id == item_id
                and now >= event.after
            ):
                self._consumed_aborts.add(index)
                self.migration_aborts_injected += 1
                return True
        return False

    def note_service(self, enclosure: str, start: Seconds) -> None:
        """Record an I/O service start for the outage-violation audit."""
        outage = self.outage_at(enclosure, start)
        if outage is not None:
            self.outage_violations.append(
                f"{enclosure}: I/O service started at t={start:.3f}s inside "
                f"outage [{outage.start:.3f}s, {outage.end:.3f}s)"
            )

    def unavailability_seconds(self, end: Seconds) -> Seconds:
        """Total enclosure-seconds of outage clipped to ``[0, end]``.

        Overlapping windows on the same enclosure are merged so they are
        not double-counted.
        """
        windows: dict[str, list[tuple[Seconds, Seconds]]] = {}
        for event in self.plan.events:
            if isinstance(event, EnclosureOutage):
                lo = max(0.0, event.start)
                hi = min(end, event.end)
                if hi > lo:
                    windows.setdefault(event.enclosure, []).append((lo, hi))
        total: Seconds = 0.0
        for spans in windows.values():
            spans.sort()
            merged_lo, merged_hi = spans[0]
            for lo, hi in spans[1:]:
                if lo > merged_hi:
                    total += merged_hi - merged_lo
                    merged_lo, merged_hi = lo, hi
                else:
                    merged_hi = max(merged_hi, hi)
            total += merged_hi - merged_lo
        return total
