"""Tests for the seeded FaultModel and the runtime FaultClock."""

from __future__ import annotations

from repro.faults import FaultClock, FaultModel, FaultPlan
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)


class TestModel:
    def test_same_seed_same_draws(self) -> None:
        a = FaultModel(seed=7, spin_up_failure_prob=0.3)
        b = FaultModel(seed=7, spin_up_failure_prob=0.3)
        draws = [(a.spin_up_failures("e0", c), b.spin_up_failures("e0", c))
                 for c in range(50)]
        assert all(x == y for x, y in draws)

    def test_different_seeds_diverge(self) -> None:
        a = FaultModel(seed=1, spin_up_failure_prob=0.5)
        b = FaultModel(seed=2, spin_up_failure_prob=0.5)
        assert [a.spin_up_failures("e0", c) for c in range(50)] != [
            b.spin_up_failures("e0", c) for c in range(50)
        ]

    def test_streaks_bounded(self) -> None:
        model = FaultModel(
            seed=3, spin_up_failure_prob=0.9, max_consecutive_failures=3
        )
        streaks = [model.spin_up_failures("e0", c) for c in range(200)]
        assert all(0 <= s <= 3 for s in streaks)
        assert any(s > 0 for s in streaks)

    def test_more_cycles_mean_more_faults(self) -> None:
        # Proportionality: fault draws are keyed on the cycle index, so
        # doubling the spin cycles can only add failing cycles.
        model = FaultModel(seed=11, spin_up_failure_prob=0.25)
        failing = [
            c for c in range(200) if model.spin_up_failures("e0", c) > 0
        ]
        first_half = sum(1 for c in failing if c < 100)
        assert 0 < first_half < len(failing)

    def test_inactive_model_never_fires(self) -> None:
        model = FaultModel(seed=9)
        assert not model.active
        assert model.spin_up_failures("e0", 0) == 0
        assert model.spin_up_multiplier("e0", 0) == 1.0

    def test_round_trip(self) -> None:
        model = FaultModel(seed=4, slow_spin_up_prob=0.5)
        assert FaultModel.from_dict(model.to_dict()) == model


class TestClockSpinUp:
    def test_scheduled_event_is_one_shot_streak(self) -> None:
        plan = FaultPlan(
            events=(SpinUpFailure(enclosure="e0", after=0.0, failures=2),)
        )
        clock = FaultClock(plan)
        assert clock.spin_up_attempt("e0", 5.0).fails
        assert clock.spin_up_attempt("e0", 6.0).fails
        assert not clock.spin_up_attempt("e0", 7.0).fails
        # Consumed: the next cycle rolls clean.
        assert not clock.spin_up_attempt("e0", 8.0).fails
        assert clock.spin_up_failures_injected == 2

    def test_event_waits_for_after(self) -> None:
        plan = FaultPlan(
            events=(SpinUpFailure(enclosure="e0", after=100.0),)
        )
        clock = FaultClock(plan)
        assert not clock.spin_up_attempt("e0", 50.0).fails
        assert clock.spin_up_attempt("e0", 100.0).fails

    def test_other_enclosures_untouched(self) -> None:
        plan = FaultPlan(events=(SpinUpFailure(enclosure="e0"),))
        clock = FaultClock(plan)
        assert not clock.spin_up_attempt("e1", 0.0).fails

    def test_slow_window_sets_multiplier(self) -> None:
        plan = FaultPlan(
            events=(
                SlowSpinUp(enclosure="e0", start=10.0, end=20.0, multiplier=4.0),
            )
        )
        clock = FaultClock(plan)
        assert clock.spin_up_attempt("e0", 15.0).seconds_multiplier == 4.0
        assert clock.spin_up_attempt("e0", 25.0).seconds_multiplier == 1.0


class TestClockOutage:
    def test_window_half_open(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=10.0, end=20.0),)
        )
        clock = FaultClock(plan)
        assert clock.outage_at("e0", 9.9) is None
        assert clock.outage_at("e0", 10.0) is not None
        assert clock.outage_at("e0", 19.9) is not None
        assert clock.outage_at("e0", 20.0) is None
        assert clock.outage_at("e1", 15.0) is None

    def test_overlapping_windows_latest_end_wins(self) -> None:
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=10.0, end=20.0),
                EnclosureOutage(enclosure="e0", start=15.0, end=40.0),
            )
        )
        outage = FaultClock(plan).outage_at("e0", 16.0)
        assert outage is not None and outage.end == 40.0

    def test_unavailability_merges_and_clips(self) -> None:
        plan = FaultPlan(
            events=(
                EnclosureOutage(enclosure="e0", start=10.0, end=20.0),
                EnclosureOutage(enclosure="e0", start=15.0, end=30.0),
                EnclosureOutage(enclosure="e1", start=0.0, end=100.0),
            )
        )
        clock = FaultClock(plan)
        # e0: merged [10, 30) = 20 s; e1 clipped to [0, 50] = 50 s.
        assert clock.unavailability_seconds(50.0) == 70.0

    def test_note_service_records_violation(self) -> None:
        plan = FaultPlan(
            events=(EnclosureOutage(enclosure="e0", start=10.0, end=20.0),)
        )
        clock = FaultClock(plan)
        clock.note_service("e0", 12.0)
        clock.note_service("e0", 25.0)
        assert len(clock.outage_violations) == 1


class TestClockBatteryAndMigration:
    def test_battery_failure_time(self) -> None:
        plan = FaultPlan(
            events=(
                CacheBatteryFailure(time=100.0),
                CacheBatteryFailure(time=50.0),
            )
        )
        clock = FaultClock(plan)
        failure_time = clock.battery_failure_time
        assert failure_time == 50.0
        # The controller treats the battery as failed from that instant.
        assert not 49.9 >= failure_time
        assert 50.0 >= failure_time

    def test_no_battery_event(self) -> None:
        clock = FaultClock(FaultPlan())
        assert clock.battery_failure_time is None

    def test_migration_abort_is_one_shot(self) -> None:
        plan = FaultPlan(
            events=(MigrationAbort(item_id="item-1", after=10.0),)
        )
        clock = FaultClock(plan)
        assert not clock.migration_abort("item-1", 5.0)
        assert not clock.migration_abort("item-2", 15.0)
        assert clock.migration_abort("item-1", 15.0)
        assert not clock.migration_abort("item-1", 16.0)
        assert clock.migration_aborts_injected == 1


class TestClockIndex:
    """The per-enclosure outage index and the cached battery time."""

    PLAN = FaultPlan(
        events=(
            EnclosureOutage(enclosure="e0", start=10.0, end=30.0),
            CacheBatteryFailure(time=300.0),
            EnclosureOutage(enclosure="e1", start=0.0, end=500.0),
            EnclosureOutage(enclosure="e0", start=20.0, end=60.0),
            SpinUpFailure(enclosure="e0", after=5.0, failures=2),
            EnclosureOutage(enclosure="e0", start=25.0, end=45.0),
            CacheBatteryFailure(time=120.0),
            EnclosureOutage(enclosure="e0", start=50.0, end=60.0),
            CacheBatteryFailure(time=200.0),
        ),
        model=FaultModel(seed=5, spin_up_failure_prob=0.4),
    )

    def test_overlapping_windows_latest_ending_wins(self) -> None:
        clock = FaultClock(self.PLAN)
        assert clock.outage_at("e0", 12.0).end == 30.0
        # [10, 30), [20, 60) and [25, 45) all cover t=26.
        assert clock.outage_at("e0", 26.0).end == 60.0
        assert clock.outage_at("e0", 59.0).end == 60.0
        assert clock.outage_at("e0", 60.0) is None

    def test_equal_ends_keep_plan_order(self) -> None:
        # [20, 60) precedes [50, 60) in the plan and wins the tie.
        outage = FaultClock(self.PLAN).outage_at("e0", 55.0)
        assert (outage.start, outage.end) == (20.0, 60.0)

    def test_other_enclosures_windows_ignored(self) -> None:
        clock = FaultClock(self.PLAN)
        # e1's window ends later than every e0 window and covers them all.
        assert clock.outage_at("e0", 5.0) is None
        assert clock.outage_at("e0", 70.0) is None
        assert clock.outage_at("e1", 26.0).end == 500.0

    def test_enclosure_without_windows(self) -> None:
        clock = FaultClock(self.PLAN)
        assert clock.outage_at("e2", 26.0) is None
        assert FaultClock(FaultPlan()).outage_at("e0", 26.0) is None

    def test_battery_failure_time_is_minimum(self) -> None:
        assert FaultClock(self.PLAN).battery_failure_time == 120.0

    def test_restored_clock_answers_identically(self) -> None:
        clock = FaultClock(self.PLAN)
        for at in (6.0, 7.0, 8.0, 9.0):
            clock.spin_up_attempt("e0", at)
        clock.note_service("e0", 26.0)
        state = clock.snapshot_state()
        restored = FaultClock(self.PLAN)
        restored.restore_state(state)
        assert restored.snapshot_state() == state
        assert restored.battery_failure_time == clock.battery_failure_time
        for name in ("e0", "e1", "e2"):
            for step in range(0, 1300, 7):
                at = step / 2.0
                assert restored.outage_at(name, at) == clock.outage_at(
                    name, at
                )
        for at in (70.0, 71.0, 72.0):
            assert restored.spin_up_attempt("e0", at) == (
                clock.spin_up_attempt("e0", at)
            )

    def test_index_is_not_snapshotted(self) -> None:
        state = FaultClock(self.PLAN).snapshot_state()
        assert state == FaultClock(FaultPlan()).snapshot_state()
