"""Runtime invariant auditor for simulation runs.

The energy numbers the experiments report are integrals accumulated over
hundreds of thousands of events; a single accounting slip (a state
interval charged twice, a capacity counter that drifts) corrupts them
*silently*.  :class:`InvariantAuditor` is the opt-in defence: it hooks
the :class:`~repro.engine.kernel.SimulationKernel` (via
:meth:`InvariantAuditor.hook`) so :meth:`InvariantAuditor.check` runs
after every policy checkpoint and once at the end of the run, and the
auditor re-derives the books from first principles:

* **Energy conservation** — each enclosure's per-state joules must equal
  ``watts(state) × time_in_state(state)``, per-state times must sum to
  the settled clock, and the :class:`~repro.storage.meter.PowerMeter`
  reading must equal the independent per-enclosure/controller
  recomputation.
* **Capacity accounting** — cache partitions within their byte budgets,
  and every enclosure's used-byte counter equal to the sum of the item
  sizes placed on it (and within declared capacity).
* **Monotonic time** — audit time, and every enclosure's settled clock,
  never move backwards.
* **Fault discipline** (:mod:`repro.faults`) — acknowledged writes are
  conserved (every page absorbed into write-delay is either still dirty
  or was flushed: ``absorbed == flushed + dirty``, exact integers), no
  physical I/O started service inside an injected outage window, and
  after a cache-battery failure no acknowledged dirty data lingers in
  the write-delay partition.
* **Action-log consistency** (:mod:`repro.actions`) — what the
  executor's log claims was applied never exceeds what the controller's
  own books measured (migration counts and bytes), and the log length
  matches the executor's outcome counters.
* **Tier conservation** (:mod:`repro.storage.tiers`) — per tier, the
  byte ledger's ``bytes_in − bytes_out`` equals the bytes currently
  placed on the tier's devices (primaries plus replicas, exact
  integers), per-kind tier-move counters never exceed the controller's
  books, and no archived copy has served physical I/O without a
  promote record in the action log.

Any violation raises :class:`~repro.errors.AuditError` whose message
embeds a dump of the violating state.  Overhead is one settle + O(items)
bookkeeping pass per monitoring period — negligible next to replay
itself (see ``docs/devtools.md``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.capture import Snapshottable
from repro.errors import AuditError
from repro.simulation import SimulationContext
from repro.storage.cache import PAGE_BYTES
from repro.storage.power import PowerState
from repro.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.kernel import SimulationKernel

__all__ = ["InvariantAuditor"]


class InvariantAuditor(Snapshottable):
    """Checks simulation invariants each monitoring period.

    Parameters
    ----------
    context:
        The wired-up simulation under test.
    rel_tol / abs_tol:
        Tolerances for energy comparisons.  Energy is accumulated by
        summation over many intervals, so exact equality is not expected;
        the defaults allow normal float round-off while catching any
        real accounting error (which shows up in whole joules).

    Its snapshot state is its cursors, so the monotonic-time checks
    stay armed across a resume seam.
    """

    __slots__ = (
        "context",
        "rel_tol",
        "abs_tol",
        "checks_run",
        "_last_now",
        "_last_clock",
        "_watts",
    )

    _REBUILT = frozenset({"context", "_watts"})

    def __init__(
        self,
        context: SimulationContext,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-6,
    ) -> None:
        self.context = context
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.checks_run = 0
        self._last_now = 0.0
        self._last_clock: dict[str, float] = {}
        #: Each enclosure's watts per state, read once from its frozen
        #: power model: the energy check recomputes watts x time from it.
        self._watts = {
            enc.name: [
                (state, enc.power_model.watts(state)) for state in PowerState
            ]
            for enc in context.enclosures
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def hook(self, kernel: "SimulationKernel") -> None:
        """Attach this auditor to a simulation kernel.

        The kernel calls :meth:`check` after every policy checkpoint
        (once per monitoring period) and once at final settlement — the
        same cadence the pre-kernel replayer hand-wired.
        """
        kernel.add_checkpoint_hook(self.check)
        kernel.add_finish_hook(self.check)

    def check(self, now: float) -> None:
        """Audit every invariant at virtual time ``now``.

        Raises :class:`AuditError` listing all violations found, with a
        state dump appended.  Settles enclosure timelines to ``now`` (a
        no-op for enclosures already past it).
        """
        problems: list[str] = []
        self._check_monotonic_time(now, problems)
        self._check_energy_conservation(now, problems)
        self._check_capacity(problems)
        self._check_faults(now, problems)
        self._check_actions(problems)
        self._check_tiers(problems)
        self.checks_run += 1
        self._last_now = max(self._last_now, now)
        for enclosure in self.context.enclosures:
            self._last_clock[enclosure.name] = enclosure.clock
        if problems:
            details = "\n".join(f"  - {p}" for p in problems)
            raise AuditError(
                f"{len(problems)} invariant violation(s) at t={now:.3f}s:\n"
                f"{details}\n{self.snapshot(now)}"
            )

    def snapshot(self, now: float) -> str:
        """Dump of the audited state, embedded in audit failures."""
        ctx = self.context
        lines = [f"state dump at t={now:.3f}s:"]
        for enc in ctx.enclosures:
            lines.append(
                f"  {enc.name}: state={enc.state.value} "
                f"clock={enc.clock:.3f}s energy={enc.energy_joules():.3f}J "
                f"ios={enc.io_count} spin-ups={enc.spin_up_count}"
            )
        cache = ctx.cache
        lines.append(
            "  cache: "
            f"preload {format_bytes(cache.preload.used_bytes)}/"
            f"{format_bytes(cache.preload.capacity_bytes)}, "
            f"write-delay {cache.write_delay.dirty_pages}/"
            f"{cache.write_delay.capacity_pages} pages dirty, "
            f"lru {len(cache.lru)}/{cache.lru.capacity_pages} pages"
        )
        for name in ctx.virtualization.enclosure_names:
            used = ctx.virtualization.used_bytes(name)
            lines.append(f"  placement {name}: used {format_bytes(used)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # individual invariants
    # ------------------------------------------------------------------
    def _close(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def _check_monotonic_time(self, now: float, problems: list[str]) -> None:
        if now < self._last_now - self.abs_tol:
            problems.append(
                f"audit time moved backwards: {now:.6f}s after "
                f"{self._last_now:.6f}s"
            )
        for enc in self.context.enclosures:
            previous = self._last_clock.get(enc.name)
            if previous is not None and enc.clock < previous - self.abs_tol:
                problems.append(
                    f"{enc.name}: settled clock moved backwards "
                    f"({enc.clock:.6f}s after {previous:.6f}s)"
                )

    def _check_energy_conservation(
        self, now: float, problems: list[str]
    ) -> None:
        ctx = self.context
        expected_total = 0.0
        for enc in ctx.enclosures:
            enc.settle(now)
            occupancy = 0.0
            for state, watts in self._watts[enc.name]:
                joules = enc.energy_joules(state)
                seconds = enc.time_in_state(state)
                occupancy += seconds
                recomputed = watts * seconds
                if joules < -self.abs_tol or seconds < -self.abs_tol:
                    problems.append(
                        f"{enc.name}: negative accounting in {state.value} "
                        f"({joules:.6f}J over {seconds:.6f}s)"
                    )
                elif not self._close(joules, recomputed):
                    problems.append(
                        f"{enc.name}: {state.value} energy {joules:.6f}J "
                        f"!= watts x time = {recomputed:.6f}J"
                    )
            if not self._close(occupancy, enc.clock):
                problems.append(
                    f"{enc.name}: state occupancies sum to {occupancy:.6f}s "
                    f"but clock is {enc.clock:.6f}s"
                )
            expected_total += enc.energy_joules()
        if now <= 0:
            return
        reading = ctx.meter.read(now, ctx.controller)
        if not self._close(reading.enclosure_joules, expected_total):
            problems.append(
                "power meter disagrees with per-enclosure energy: metered "
                f"{reading.enclosure_joules:.6f}J, "
                f"summed {expected_total:.6f}J"
            )
        model = ctx.meter.controller_model
        recomputed = model.energy(now, ctx.controller.logical_io_count)
        if not self._close(reading.controller_joules, recomputed):
            problems.append(
                "power meter disagrees with controller model: metered "
                f"{reading.controller_joules:.6f}J, "
                f"recomputed {recomputed:.6f}J"
            )

    def _check_capacity(self, problems: list[str]) -> None:
        ctx = self.context
        preload = ctx.cache.preload
        if not 0 <= preload.used_bytes <= preload.capacity_bytes:
            problems.append(
                f"preload partition out of budget: used {preload.used_bytes} "
                f"of {preload.capacity_bytes} bytes"
            )
        delay = ctx.cache.write_delay
        if delay.dirty_pages < 0 or (
            delay.capacity_pages and delay.dirty_pages > delay.capacity_pages
        ):
            problems.append(
                f"write-delay partition overflow: {delay.dirty_pages} dirty "
                f"pages of {delay.capacity_pages} "
                f"({PAGE_BYTES} bytes per page)"
            )
        lru = ctx.cache.lru
        if lru.capacity_pages and len(lru) > lru.capacity_pages:
            problems.append(
                f"LRU cache overflow: {len(lru)} pages of {lru.capacity_pages}"
            )
        virt = ctx.virtualization
        # Recounted from the item -> volume mapping, never from the
        # counter it audits.
        item_bytes = virt.recount_used_bytes()
        for name in virt.enclosure_names:
            used = virt.used_bytes(name)
            recomputed = item_bytes[name]
            if used != recomputed:
                problems.append(
                    f"placement accounting drift on {name}: counter says "
                    f"{used} bytes, items sum to {recomputed} bytes"
                )
            capacity = virt.enclosure(name).capacity_bytes
            if used < 0 or (capacity and used > capacity):
                problems.append(
                    f"enclosure {name} over capacity: {used} of "
                    f"{capacity} bytes"
                )

    def _check_faults(self, now: float, problems: list[str]) -> None:
        ctx = self.context
        # Acknowledged-write conservation holds with or without a fault
        # clock: every page ever absorbed into the write-delay partition
        # is either still dirty or was flushed to disk.  Exact integer
        # identity — any slip here means an acknowledged write vanished
        # (or was flushed twice).  The dirty side is recounted from the
        # page sets, so a drifted O(1) counter cannot hide a lost page.
        delay = ctx.cache.write_delay
        dirty = delay.recount_dirty_pages()
        if delay.dirty_pages != dirty:
            problems.append(
                f"write-delay dirty-page counter drift: counter says "
                f"{delay.dirty_pages} pages, page sets hold {dirty}"
            )
        if delay.absorbed_pages != delay.flushed_pages + dirty:
            problems.append(
                "acknowledged-write conservation broken: absorbed "
                f"{delay.absorbed_pages} pages != flushed "
                f"{delay.flushed_pages} + dirty {dirty}"
            )
        clock = ctx.fault_clock
        if clock is None:
            return
        # No physical I/O may start service inside an injected outage
        # window; the enclosures record any slip as a violation.
        for violation in clock.outage_violations:
            problems.append(f"I/O served during outage: {violation}")
        # After a cache-battery failure the controller must have
        # force-flushed every acknowledged dirty page: battery-less
        # write-delay data would be lost on a power event.
        if ctx.controller.battery_failed and delay.dirty_pages:
            problems.append(
                "cache battery failed at "
                f"t={clock.battery_failure_time:.3f}s but "
                f"{delay.dirty_pages} dirty page(s) still sit in the "
                "write-delay partition at "
                f"t={now:.3f}s (acknowledged writes at risk)"
            )

    def _check_actions(self, problems: list[str]) -> None:
        ctx = self.context
        executor = ctx.executor
        controller = ctx.controller
        # One-directional bounds: the controller also serves paths the
        # executor does not originate (DDR block charges predating the
        # context executor, tail flushes), so "<=" is the invariant —
        # the log may under-claim, never over-claim.
        if executor.migrations_applied > controller.migration_count:
            problems.append(
                "action log claims more migrations than the controller "
                f"performed: {executor.migrations_applied} applied vs "
                f"{controller.migration_count} counted"
            )
        if executor.migrated_bytes_applied > controller.migrated_bytes:
            problems.append(
                "action log claims more migrated bytes than the "
                f"controller moved: {executor.migrated_bytes_applied} vs "
                f"{controller.migrated_bytes}"
            )
        outcome_total = (
            executor.actions_applied
            + executor.actions_aborted
            + executor.actions_vetoed
            + executor.actions_rejected
        )
        if len(executor.log) != outcome_total:
            problems.append(
                f"action log length {len(executor.log)} disagrees with "
                f"outcome counters summing to {outcome_total}"
            )

    def _check_tiers(self, problems: list[str]) -> None:
        ctx = self.context
        virt = ctx.virtualization
        ledger = virt.tier_ledger
        # Per-tier byte conservation: what the ledger says flowed in and
        # never left must equal what is placed there right now.  All
        # integer arithmetic, so this is an *exact* identity even on a
        # legacy single-tier context (where it degenerates to "the one
        # HDD tier holds every byte ever added and not removed").
        for tier in virt.tiers():
            placed = sum(
                virt.used_bytes(device) + virt.replica_bytes_on(device)
                for device in tier.devices
            )
            net = ledger.net_bytes(tier.name)
            if placed != net:
                problems.append(
                    f"tier {tier.name} byte conservation broken: ledger "
                    f"net {net} bytes, devices hold {placed} bytes"
                )
        executor = ctx.executor
        controller = ctx.controller
        # Same one-directional bound as migrations: the log may
        # under-claim tier moves, never over-claim them.
        bounds = (
            ("promotes", executor.promotes_applied, controller.promotion_count),
            ("demotes", executor.demotes_applied, controller.demotion_count),
            (
                "archive moves",
                executor.archives_applied,
                controller.archive_move_count,
            ),
            (
                "replications",
                executor.replicates_applied,
                controller.replication_count,
            ),
        )
        for label, claimed, counted in bounds:
            if claimed > counted:
                problems.append(
                    f"action log claims more {label} than the controller "
                    f"performed: {claimed} applied vs {counted} counted"
                )
        # No service from an archived copy without a promote record:
        # every item the controller marked as served-from-archive must
        # appear in some PromoteItem record (whatever its outcome — a
        # capacity-rejected promote is still an auditable decision).
        unpromoted = sorted(
            controller.archive_serviced_items
            - executor.promote_attempt_items
        )
        if unpromoted:
            problems.append(
                "archived copies served I/O with no promote record: "
                + ", ".join(unpromoted)
            )
