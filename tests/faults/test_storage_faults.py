"""Storage-layer fault injection: enclosure, controller, migration.

Covers the injection points themselves (failed/slow spin-ups, outage
refusal, battery loss, migration aborts), the controller's reactions
(retry with capped backoff, emergency write buffering, forced flushes),
and the two hard guarantees: illegal power-state transitions raise
``AuditError`` instead of silently clamping, and an aborted migration
leaves placement, used-bytes, and energy books bit-identical.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.actions.executor import ActionExecutor
from repro.actions.plan import ActionPlan
from repro.actions.records import MigrateItem
from repro.errors import (
    AuditError,
    EnclosureUnavailableError,
    MigrationAbortedError,
    SpinUpFailedError,
)
from repro.faults import FaultClock, FaultPlan
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)
from repro.storage.cache import PAGE_BYTES, StorageCache
from repro.storage.controller import CACHE_HIT_LATENCY, StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import PowerState
from repro.storage.virtualization import BlockVirtualization
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields

ITEMS = ("a", "b")


def build(plan: FaultPlan | None = None):
    """Two-enclosure controller harness, optionally fault-injected."""
    encs = [
        DiskEnclosure(
            f"e{i}",
            iops_random=100.0,
            iops_sequential=400.0,
            capacity_bytes=10 * units.GB,
        )
        for i in range(2)
    ]
    virt = BlockVirtualization(encs)
    for i, item in enumerate(ITEMS):
        virt.create_volume(f"v{i}", f"e{i}")
        virt.add_item(item, 64 * units.MB, f"v{i}")
    controller = StorageController(virt, StorageCache())
    clock = None
    if plan is not None:
        clock = FaultClock(plan)
        for enc in encs:
            enc.set_fault_clock(clock)
        controller.set_fault_clock(clock)
    return controller, virt, encs, clock


def power_off(enc: DiskEnclosure, now: float) -> None:
    """Drive the enclosure to OFF via the normal timeline."""
    enc.enable_power_off(now)
    enc.settle(now + enc.spin_down_timeout + 100.0)
    assert enc.state is PowerState.OFF


def write(item: str, at: float, size: int = 64 * units.KB) -> LogicalIORecord:
    return LogicalIORecord(
        timestamp=at, item_id=item, offset=0, size=size, io_type=IOType.WRITE
    )


def read(item: str, at: float, size: int = 64 * units.KB) -> LogicalIORecord:
    return LogicalIORecord(
        timestamp=at, item_id=item, offset=0, size=size, io_type=IOType.READ
    )


class TestEnclosureSpinUp:
    def test_failed_spin_up_charges_energy_and_lands_in_off(self) -> None:
        plan = FaultPlan(events=(SpinUpFailure(enclosure="e0", failures=1),))
        _, _, encs, _ = build(plan)
        enc = encs[0]
        enc.submit(0.0)
        power_off(enc, 0.0)
        spin_up_energy_before = enc.energy_joules(PowerState.SPIN_UP)
        with pytest.raises(SpinUpFailedError) as excinfo:
            enc.submit(1000.0)
        assert excinfo.value.enclosure == "e0"
        assert enc.state is PowerState.OFF
        # The doomed attempt still burned a full spin-up of energy.
        gained = enc.energy_joules(PowerState.SPIN_UP) - spin_up_energy_before
        expected = (
            enc.power_model.spin_up_watts * enc.power_model.spin_up_seconds
        )
        assert gained == pytest.approx(expected)
        # Recorded at the end of the burned attempt, not its start.
        assert enc.spin_up_failure_times == [
            pytest.approx(1000.0 + enc.power_model.spin_up_seconds)
        ]
        # The streak is over: the retry succeeds.
        result = enc.submit(1011.0)
        assert enc.state is PowerState.ACTIVE
        assert result.start >= 1011.0 + enc.power_model.spin_up_seconds

    def test_slow_spin_up_stretches_latency_and_energy(self) -> None:
        plan = FaultPlan(
            events=(
                SlowSpinUp(enclosure="e0", start=0.0, end=1e6, multiplier=3.0),
            )
        )
        _, _, encs, _ = build(plan)
        enc = encs[0]
        enc.submit(0.0)
        power_off(enc, 0.0)
        result = enc.submit(1000.0)
        waited = result.start - 1000.0
        assert waited == pytest.approx(3.0 * enc.power_model.spin_up_seconds)
        assert enc.time_in_state(PowerState.SPIN_UP) == pytest.approx(
            3.0 * enc.power_model.spin_up_seconds
        )

    def test_illegal_transition_raises_audit_error(self) -> None:
        _, _, encs, _ = build()
        enc = encs[0]
        assert enc.state is PowerState.IDLE
        with pytest.raises(AuditError, match="illegal power-state transition"):
            enc._transition(PowerState.OFF, 0.0)

    @pytest.mark.parametrize(
        "plan", [None, FaultPlan()], ids=["unfaulted", "faulted"]
    )
    def test_in_place_service_start_audits_source_state(
        self, plan: FaultPlan | None, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # submit_one, the one service body, takes the edge into ACTIVE
        # in place, not through _transition, with or without a fault
        # clock.  With _ensure_on a
        # no-op an OFF enclosure reaches that edge from OFF, which the
        # legal graph refuses.
        _, _, encs, _ = build(plan)
        enc = encs[0]
        power_off(enc, 0.0)
        monkeypatch.setattr(DiskEnclosure, "_ensure_on", lambda self: None)
        with pytest.raises(
            AuditError, match="illegal power-state transition off -> active"
        ):
            enc.submit_one(1000.0, 1.0 / enc.iops_random, 1, read=True)
        assert enc.state is PowerState.OFF
        assert enc.io_count == 0

    def test_in_place_bulk_service_start_audits_source_state(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # occupy validates and calls submit_one: the same edge, the same
        # refusal.
        _, _, encs, _ = build()
        enc = encs[0]
        power_off(enc, 0.0)
        monkeypatch.setattr(DiskEnclosure, "_ensure_on", lambda self: None)
        with pytest.raises(
            AuditError, match="illegal power-state transition off -> active"
        ):
            enc.occupy(1000.0, 2.0)
        assert enc.state is PowerState.OFF
        assert enc.io_count == 0


class TestEnclosureOutage:
    def test_submit_refused_inside_window(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=10.0, end=50.0),)
        )
        _, _, encs, _ = build(plan)
        enc = encs[0]
        with pytest.raises(EnclosureUnavailableError) as excinfo:
            enc.submit(20.0)
        assert excinfo.value.until == 50.0
        assert enc.io_count == 0
        # Outside the window service resumes.
        enc.submit(50.0)
        assert enc.io_count == 1

    def test_queue_pushing_start_into_window_is_refused(self) -> None:
        # The arrival at 9.5 s is outside the window, but the transfer
        # queued ahead of it pushes the service start to 11 s, inside.
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=10.0, end=50.0),)
        )
        _, _, encs, clock = build(plan)
        enc = encs[0]
        enc.occupy(9.0, 2.0)
        served = enc.io_count
        with pytest.raises(EnclosureUnavailableError) as excinfo:
            enc.submit_one(9.5, 1.0 / enc.iops_random, 1, True)
        assert excinfo.value.until == 50.0
        assert enc.io_count == served
        assert clock.outage_violations == []


class TestControllerRetry:
    def test_spin_up_retries_with_capped_backoff(self) -> None:
        plan = FaultPlan(events=(SpinUpFailure(enclosure="e0", failures=2),))
        controller, _, encs, clock = build(plan)
        power_off(encs[0], 1.0)
        response = controller.submit(*io_fields(read("a", 1000.0)))
        assert controller.fault_spin_up_retries == 2
        assert controller.fault_delayed_ios == 1
        assert clock.spin_up_failures_injected == 2
        # Two burned spin-ups plus backoffs (1 s, then 2 s) precede the
        # successful third attempt.
        spin_up = encs[0].power_model.spin_up_seconds
        assert response >= 2 * spin_up + 1.0 + 2.0
        assert controller.fault_max_queue_delay > 0.0

    def test_read_waits_out_an_outage(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=0.0, end=300.0),)
        )
        controller, _, _, clock = build(plan)
        response = controller.submit(*io_fields(read("a", 100.0)))
        assert controller.fault_denied_ios == 1
        assert response >= 200.0  # delayed to the end of the window
        assert clock.outage_violations == []

    # The first attempt runs outside the retry loop, which takes over
    # with that attempt's error: these pin the books the hand-off must
    # carry across, for a first error of each kind.
    def test_outage_refusal_then_two_failed_spin_ups(self) -> None:
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=900.0, end=1000.0),
                SpinUpFailure(enclosure="e0", failures=2),
            )
        )
        controller, _, encs, clock = build(plan)
        power_off(encs[0], 1.0)
        response = controller.submit(*io_fields(read("a", 950.0)))
        # Refused at 950 s until 1000 s; spin-ups fail over 1000-1010 s
        # (retry at 1000 + 1 s backoff) and 1010-1020 s (retry at
        # 1010 + 2 s); the third, from 1020 s, serves at 1030 s.
        assert controller.fault_denied_ios == 1
        assert controller.fault_delayed_ios == 1
        assert controller.fault_spin_up_retries == 2
        assert controller.fault_delay_seconds == 62.0
        assert controller.fault_max_queue_delay == 62.0
        # 62 s of fault delay, 18 s of spin-up wait, 10 ms of service.
        assert response == 80.00999999999999
        assert encs[0].spin_up_failure_times == [1010.0, 1020.0]
        assert clock.outage_violations == []

    def test_failed_spin_up_pushes_into_an_outage(self) -> None:
        plan = FaultPlan(
            events=(
                SpinUpFailure(enclosure="e0", failures=1),
                EnclosureOutage(enclosure="e0", start=1005.0, end=1100.0),
            )
        )
        controller, _, encs, clock = build(plan)
        power_off(encs[0], 1.0)
        response = controller.submit(*io_fields(read("a", 1000.0)))
        # The failed attempt burns 1000-1010 s, so the retry at 1001 s
        # meets the enclosure at 1010 s, inside the window: refused
        # until 1100 s, then a clean spin-up serves at 1110 s.
        assert controller.fault_spin_up_retries == 1
        assert controller.fault_denied_ios == 1
        assert controller.fault_delayed_ios == 1
        assert controller.fault_delay_seconds == 100.0
        assert controller.fault_max_queue_delay == 100.0
        assert response == 110.00999999999999
        assert encs[0].spin_up_failure_times == [1010.0]
        assert clock.outage_violations == []

    def test_bulk_flush_waits_out_an_outage(self) -> None:
        # The battery fails inside e0's outage: the forced write-delay
        # flush may not stay buffered, so its bulk transfer waits the
        # window out and is issued at its end.
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=100.0, end=300.0),
                CacheBatteryFailure(time=150.0),
            )
        )
        controller, _, encs, clock = build(plan)
        issued: list[tuple[float, str]] = []
        controller.set_physical_tap(
            lambda at, enclosure, count: issued.append((at, enclosure))
        )
        controller.select_write_delay(0.0, {"a"})
        assert controller.submit(*io_fields(write("a", 10.0))) == CACHE_HIT_LATENCY
        controller.on_time(200.0)
        assert controller.cache.write_delay.dirty_pages == 0
        assert controller.emergency_flushes == 1
        assert issued == [(300.0, "e0")]
        assert (encs[0].read_count, encs[0].write_count) == (0, 1)
        assert controller.fault_denied_ios == 1
        assert controller.fault_delayed_ios == 1
        assert controller.fault_spin_up_retries == 0
        assert controller.fault_delay_seconds == 100.0
        assert controller.fault_max_queue_delay == 100.0
        assert encs[0].busy_until == 300.00166666666667
        assert clock.outage_violations == []


class TestEmergencyBuffer:
    def test_write_buffered_during_outage_then_drained(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=0.0, end=300.0),)
        )
        controller, _, _, clock = build(plan)
        wd = controller.cache.write_delay
        response = controller.submit(*io_fields(write("a", 100.0)))
        assert response == CACHE_HIT_LATENCY
        assert controller.emergency_buffered_ios == 1
        assert wd.dirty_pages > 0
        # After the outage the buffered pages drain on the next tick.
        controller.on_time(400.0)
        assert wd.dirty_pages == 0
        assert controller.emergency_flushes == 1
        assert wd.absorbed_pages == wd.flushed_pages
        assert clock.outage_violations == []

    def test_battery_failure_blocks_emergency_buffering(self) -> None:
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=100.0, end=300.0),
                CacheBatteryFailure(time=0.0),
            )
        )
        controller, _, _, _ = build(plan)
        response = controller.submit(*io_fields(write("a", 150.0)))
        # No battery, no buffer: the write waits the outage out instead.
        assert controller.emergency_buffered_ios == 0
        assert response >= 150.0


class TestBatteryFailure:
    def test_acknowledged_writes_force_flushed(self) -> None:
        plan = FaultPlan(events=(CacheBatteryFailure(time=500.0),))
        controller, _, _, _ = build(plan)
        wd = controller.cache.write_delay
        controller.select_write_delay(0.0, {"a"})
        response = controller.submit(*io_fields(write("a", 10.0)))
        assert response == CACHE_HIT_LATENCY
        assert wd.dirty_pages > 0
        controller.on_time(600.0)
        assert controller.battery_failed
        assert wd.dirty_pages == 0
        assert wd.absorbed_pages == wd.flushed_pages
        assert controller.emergency_flushes == 1
        assert wd.selected_items() == set()
        # At-risk accounting saw the exposure window close.
        assert controller.at_risk_peak_bytes > 0
        assert controller.at_risk_samples[-1][1] == 0

    def test_at_risk_integral_resumes_at_first_non_zero_tick(self) -> None:
        # Ticks skip the integral while the exposure is zero.  A page
        # dirtied in the partition itself (the controller dirties none
        # after the failure flush) is integrated from the first tick
        # that sees it.
        plan = FaultPlan(events=(CacheBatteryFailure(time=0.0),))
        controller, _, _, _ = build(plan)
        controller.on_time(1.0)
        assert controller.battery_failed
        wd = controller.cache.write_delay
        wd.select("a")
        wd.absorb_write("a", 0, 0)
        controller.on_time(2.0)
        controller.on_time(5.0)
        assert controller.at_risk_byte_seconds == PAGE_BYTES * 3.0
        assert controller.at_risk_samples[-1] == (2.0, PAGE_BYTES)

    def test_no_new_selection_after_failure(self) -> None:
        plan = FaultPlan(events=(CacheBatteryFailure(time=0.0),))
        controller, _, _, _ = build(plan)
        controller.select_write_delay(10.0, {"a"})
        assert controller.cache.write_delay.selected_items() == set()
        # Writes take the physical path, not the dead cache.
        controller.submit(*io_fields(write("a", 20.0)))
        assert controller.cache.write_delay.dirty_pages == 0


class TestMigrationAbort:
    def test_abort_leaves_books_identical(self) -> None:
        plan = FaultPlan(events=(MigrationAbort(item_id="a", after=0.0),))
        controller, virt, encs, _ = build(plan)
        placement = {item: virt.enclosure_of(item).name for item in ITEMS}
        used = {e.name: virt.used_bytes(e.name) for e in encs}
        energy = {e.name: e.energy_joules() for e in encs}
        with pytest.raises(MigrationAbortedError):
            controller.migrate_item(100.0, "a", "e1")
        assert controller.migration_aborts == 1
        assert {i: virt.enclosure_of(i).name for i in ITEMS} == placement
        assert {e.name: virt.used_bytes(e.name) for e in encs} == used
        assert {e.name: e.energy_joules() for e in encs} == energy
        assert controller.migrated_bytes == 0
        # One-shot: the re-planned move succeeds.
        controller.migrate_item(200.0, "a", "e1")
        assert virt.enclosure_of("a").name == "e1"

    def test_outage_on_either_end_aborts(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e1", start=0.0, end=500.0),)
        )
        controller, virt, _, _ = build(plan)
        with pytest.raises(MigrationAbortedError):
            controller.migrate_item(100.0, "a", "e1")
        assert virt.enclosure_of("a").name == "e0"

    def test_engine_counts_aborts_and_continues(self) -> None:
        plan = FaultPlan(events=(MigrationAbort(item_id="a", after=0.0),))
        controller, virt, _, _ = build(plan)
        moves = ActionPlan([MigrateItem("a", "e1"), MigrateItem("b", "e0")])
        report = ActionExecutor(controller).apply(100.0, moves)
        assert report.moves_aborted == 1
        assert report.moves_executed == 1
        assert controller.migration_aborts == 1
        assert virt.enclosure_of("a").name == "e0"  # aborted
        assert virt.enclosure_of("b").name == "e0"  # executed
