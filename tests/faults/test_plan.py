"""Tests for FaultPlan / fault events: validation, round-trip, hashing."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ValidationError
from repro.faults import (
    EMPTY_PLAN,
    CacheBatteryFailure,
    EnclosureOutage,
    FaultModel,
    FaultPlan,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)


def full_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            SpinUpFailure(enclosure="enc-00", after=10.0, failures=2),
            EnclosureOutage(enclosure="enc-01", start=100.0, end=200.0),
            CacheBatteryFailure(time=500.0),
            SlowSpinUp(enclosure="enc-02", start=0.0, end=50.0, multiplier=4.0),
            MigrationAbort(item_id="item-7", after=300.0),
        ),
        model=FaultModel(seed=42, spin_up_failure_prob=0.2),
    )


class TestValidation:
    def test_spin_up_failure_bounds(self) -> None:
        with pytest.raises(ValidationError):
            SpinUpFailure(enclosure="e", failures=0)
        with pytest.raises(ValidationError):
            SpinUpFailure(enclosure="e", failures=65)
        with pytest.raises(ValidationError):
            SpinUpFailure(enclosure="e", after=-1.0)

    def test_outage_window_ordering(self) -> None:
        with pytest.raises(ValidationError):
            EnclosureOutage(enclosure="e", start=10.0, end=10.0)
        with pytest.raises(ValidationError):
            EnclosureOutage(enclosure="e", start=-1.0, end=5.0)

    def test_slow_spin_up_multiplier_floor(self) -> None:
        with pytest.raises(ValidationError):
            SlowSpinUp(enclosure="e", start=0.0, end=1.0, multiplier=0.5)

    def test_battery_time_non_negative(self) -> None:
        with pytest.raises(ValidationError):
            CacheBatteryFailure(time=-0.1)

    def test_plan_rejects_foreign_events(self) -> None:
        with pytest.raises(ValidationError):
            FaultPlan(events=("not-an-event",))  # type: ignore[arg-type]

    def test_plan_rejects_non_model(self) -> None:
        with pytest.raises(ValidationError):
            FaultPlan(model="seed=3")  # type: ignore[arg-type]

    def test_model_probability_bounds(self) -> None:
        with pytest.raises(ValidationError):
            FaultModel(seed=1, spin_up_failure_prob=1.0)
        with pytest.raises(ValidationError):
            FaultModel(seed=1, max_consecutive_failures=0)
        with pytest.raises(ValidationError):
            FaultModel(seed=1, slow_spin_up_multiplier=0.9)


class TestTruthiness:
    def test_empty_plan_is_falsy(self) -> None:
        assert not FaultPlan()
        assert not EMPTY_PLAN
        assert EMPTY_PLAN.label == "none"

    def test_inactive_model_is_falsy(self) -> None:
        assert not FaultPlan(model=FaultModel(seed=5))

    def test_events_make_plan_truthy(self) -> None:
        assert FaultPlan(events=(CacheBatteryFailure(time=1.0),))

    def test_active_model_makes_plan_truthy(self) -> None:
        assert FaultPlan(model=FaultModel(seed=5, spin_up_failure_prob=0.1))


class TestRoundTrip:
    def test_json_round_trip_is_exact(self) -> None:
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_empty_plan_round_trips(self) -> None:
        assert FaultPlan.from_json(EMPTY_PLAN.to_json()) == EMPTY_PLAN

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(ValidationError):
            FaultPlan.from_dict({"format": 99, "events": []})

    def test_unknown_event_kind_rejected(self) -> None:
        with pytest.raises(ValidationError):
            FaultPlan.from_dict(
                {"format": 1, "events": [{"kind": "disk-on-fire"}]}
            )

    def test_plans_are_picklable(self) -> None:
        plan = full_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFingerprint:
    def test_stable_across_calls(self) -> None:
        assert full_plan().fingerprint() == full_plan().fingerprint()

    def test_any_event_change_changes_fingerprint(self) -> None:
        base = full_plan()
        moved = FaultPlan(
            events=base.events[:-1]
            + (MigrationAbort(item_id="item-7", after=301.0),),
            model=base.model,
        )
        assert moved.fingerprint() != base.fingerprint()

    def test_model_seed_changes_fingerprint(self) -> None:
        a = FaultPlan(model=FaultModel(seed=1, spin_up_failure_prob=0.1))
        b = FaultPlan(model=FaultModel(seed=2, spin_up_failure_prob=0.1))
        assert a.fingerprint() != b.fingerprint()


def test_label_mentions_events_and_model() -> None:
    assert full_plan().label == "5ev+model:42"
    assert FaultPlan(events=(CacheBatteryFailure(time=1.0),)).label == "1ev"
