"""Tests for SnapshotSession: resume bit-identity and refusal paths."""

import re
from dataclasses import asdict

import pytest

from repro.baselines.ddr import DDRPolicy
from repro.baselines.zoned import Zone, ZonedPolicy
from repro.core.manager import EnergyEfficientPolicy
from repro.engine.kernel import SimulationKernel
from repro.errors import SnapshotError, ValidationError
from repro.experiments.runner import ALL_POLICIES
from repro.experiments.testbed import build_workload
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    FaultPlan,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)
from repro.persistence import (
    RunSpec,
    SnapshotSession,
    find_latest_valid,
    load_snapshot,
    snapshot_count,
)


class _InjectedCrash(Exception):
    pass


def _fault_plan() -> FaultPlan:
    first_item = build_workload("tpcc", False).items[0].item_id
    return FaultPlan(
        events=(
            SpinUpFailure(enclosure="enc-03", after=300.0, failures=2),
            SlowSpinUp(
                enclosure="enc-05", start=0.0, end=1800.0, multiplier=2.0
            ),
            EnclosureOutage(enclosure="enc-01", start=900.0, end=1200.0),
            CacheBatteryFailure(time=1500.0),
            MigrationAbort(item_id=first_item, after=600.0),
        )
    )


def _surface(result, session):
    timeline = (
        tuple(session.timeline.points)
        if session.timeline is not None
        else None
    )
    return (asdict(result), result.actions, timeline)


def _crash_and_resume(spec, snapshot_every, kill_at, directory):
    session = SnapshotSession(spec)

    def injector(count, ts):
        if count == kill_at:
            raise _InjectedCrash()

    with pytest.raises(_InjectedCrash):
        session.run(snapshot_every, directory, record_hook=injector)
    latest = find_latest_valid(directory)
    assert latest is not None
    fresh = SnapshotSession(spec)
    return fresh, fresh.resume(load_snapshot(latest)), snapshot_count(latest)


def _capture_at(session, boundary):
    """The payload ``session`` captures at ``boundary``, where it stops."""
    captured = {}

    def hook(count, ts):
        if count == boundary:
            captured["payload"] = session.capture(count, ts)
            raise _InjectedCrash()

    with pytest.raises(_InjectedCrash):
        session.run(record_hook=hook)
    return captured["payload"]


def _zoned_session():
    """A file-server session under a mixed zoned policy: DDR on the first
    half of the enclosures, the proposed method on the second."""
    session = SnapshotSession(RunSpec(workload="fileserver", policy="ddr"))
    names = session.context.enclosure_names()
    half = len(names) // 2
    session.policy = ZonedPolicy(
        [
            Zone("db", tuple(names[:half]), DDRPolicy()),
            Zone("archive", tuple(names[half:]), EnergyEfficientPolicy()),
        ]
    )
    session.policy.bind(session.context)
    session.kernel = SimulationKernel(session.context, session.policy)
    return session


class TestResumeBitIdentity:
    def test_everything_cell_resumes_bit_identically(self, tmp_path):
        """The maximal configuration: proposed policy, fault plan,
        timeline, auditor armed across the seam."""
        spec = RunSpec(
            workload="tpcc",
            policy="proposed",
            audit=True,
            timeline_interval=300.0,
            faults_json=_fault_plan().to_json(),
        )
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        fresh, resumed, resumed_from = _crash_and_resume(
            spec, 3000, golden.io_count * 2 // 3, tmp_path
        )
        assert resumed_from > 0
        assert _surface(resumed, fresh) == _surface(golden, golden_session)
        # The auditor kept checking after the seam, on restored cursors.
        assert fresh.auditor.checks_run == golden_session.auditor.checks_run

    def test_faulted_ddr_cell_resumes_bit_identically(self, tmp_path):
        """DDR under the same fault plan, killed after the cache battery
        failed: the smoothed IOPS table, the cold set and the at-risk
        books (integrated only while exposure is non-zero) all cross
        the seam, auditor armed throughout."""
        plan = _fault_plan()
        (failure,) = [
            e for e in plan.events if isinstance(e, CacheBatteryFailure)
        ]
        spec = RunSpec(
            workload="tpcc",
            policy="ddr",
            audit=True,
            timeline_interval=300.0,
            faults_json=plan.to_json(),
        )
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        session = SnapshotSession(spec)

        def injector(count, ts):
            if ts >= failure.time + 300.0:
                raise _InjectedCrash()

        with pytest.raises(_InjectedCrash):
            session.run(1000, tmp_path, record_hook=injector)
        latest = find_latest_valid(tmp_path)
        assert latest is not None
        payload = load_snapshot(latest)
        # The snapshot resumed from was taken after the failure.
        assert payload["states"]["controller"]["_battery_failed"]
        assert payload["states"]["policy"]["determinations"] > 0
        fresh = SnapshotSession(spec)
        resumed = fresh.resume(payload)
        assert _surface(resumed, fresh) == _surface(golden, golden_session)
        assert fresh.auditor.checks_run == golden_session.auditor.checks_run
        assert (
            fresh.context.controller.at_risk_samples
            == golden_session.context.controller.at_risk_samples
        )

    def test_tiered_lifecycle_resumes_bit_identically(self, tmp_path):
        """The multi-tier testbed: promote/demote/archive records and
        the policy's temperature state all cross the seam, auditor
        (with its per-tier conservation checks) armed throughout."""
        spec = RunSpec(
            workload="fileserver",
            policy="tiered-lifecycle",
            audit=True,
        )
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        fresh, resumed, resumed_from = _crash_and_resume(
            spec, 3000, golden.io_count * 2 // 3, tmp_path
        )
        assert resumed_from > 0
        assert _surface(resumed, fresh) == _surface(golden, golden_session)
        assert fresh.auditor.checks_run == golden_session.auditor.checks_run

    def test_columnar_pump_resumes_bit_identically(self, tmp_path):
        spec = RunSpec(workload="tpcc", policy="ddr")
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        fresh, resumed, _ = _crash_and_resume(
            spec, 4000, golden.io_count // 2, tmp_path
        )
        assert _surface(resumed, fresh) == _surface(golden, golden_session)

    def test_response_count_off_the_cursor_is_refused(self):
        spec = RunSpec(workload="tpcc", policy="ddr")
        session = SnapshotSession(spec)
        payload = _capture_at(session, 500)
        state = payload["states"]["app_monitor"]
        state["_responses"] = state["_responses"][:-1]
        with pytest.raises(SnapshotError, match="499 responses"):
            SnapshotSession(spec).resume(payload)

    def test_crash_before_first_snapshot_leaves_no_file(self, tmp_path):
        spec = RunSpec(workload="tpcc", policy="no-power-saving")
        session = SnapshotSession(spec)

        def injector(count, ts):
            if count == 10:
                raise _InjectedCrash()

        with pytest.raises(_InjectedCrash):
            session.run(5000, tmp_path, record_hook=injector)
        assert find_latest_valid(tmp_path) is None


class TestRefusals:
    def _payload(self):
        spec = RunSpec(workload="tpcc", policy="pdc")
        return spec, _capture_at(SnapshotSession(spec), 500)

    def test_resume_with_different_spec_refused(self):
        _, payload = self._payload()
        other = SnapshotSession(RunSpec(workload="tpcc", policy="ddr"))
        with pytest.raises(SnapshotError, match="different run"):
            other.resume(payload)

    def test_missing_component_state_refused(self):
        spec, payload = self._payload()
        del payload["states"]["controller"]
        with pytest.raises(SnapshotError, match="missing component"):
            SnapshotSession(spec).resume(payload)

    def test_extra_component_state_refused(self):
        spec, payload = self._payload()
        payload["states"]["migration_engine"] = {"total_moves": 0}
        with pytest.raises(SnapshotError, match="extra.*migration_engine"):
            SnapshotSession(spec).resume(payload)

    def test_snapshot_every_without_dir_rejected(self):
        session = SnapshotSession(RunSpec(workload="tpcc", policy="pdc"))
        with pytest.raises(ValidationError, match="snapshot_dir"):
            session.run(snapshot_every=100)

    def test_negative_snapshot_every_rejected(self, tmp_path):
        session = SnapshotSession(RunSpec(workload="tpcc", policy="pdc"))
        with pytest.raises(ValidationError, match="non-negative"):
            session.run(snapshot_every=-1, snapshot_dir=tmp_path)


def _maker(policy):
    """Session factory for ``policy``: a TPC-C smoke replay with a fault
    plan, the auditor and a timeline, or the mixed zoned session."""
    if policy == "zoned":
        return _zoned_session
    spec = RunSpec(
        workload="tpcc",
        policy=policy,
        audit=True,
        timeline_interval=300.0,
        faults_json=_fault_plan().to_json(),
    )
    return lambda: SnapshotSession(spec)


class TestCaptureRoundTrip:
    @pytest.mark.parametrize("policy", [*ALL_POLICIES, "zoned"])
    def test_restored_component_recaptures_its_state(self, policy):
        """Every component restored into a fresh session from its own
        capture captures an equal state again."""
        make = _maker(policy)
        states = _capture_at(make(), 7000)["states"]
        components = make()._components()
        for name, state in states.items():
            components[name].restore_state(state)
            assert components[name].snapshot_state() == state, name


class TestStrictRestore:
    @pytest.mark.parametrize("policy", [*ALL_POLICIES, "zoned"])
    def test_unknown_state_key_is_refused(self, policy):
        """A component state with one attribute the component does not
        have is refused, never silently ignored."""
        make = _maker(policy)
        payload = _capture_at(make(), 7000)
        fresh = make()
        for name, state in payload["states"].items():
            states = {**payload["states"], name: {**state, "_unknown": 0}}
            with pytest.raises(SnapshotError, match=re.escape(repr(name))):
                fresh.resume({"meta": payload["meta"], "states": states})

    @pytest.mark.parametrize("policy", [*ALL_POLICIES, "zoned"])
    def test_every_state_key_is_required(self, policy):
        """Each top-level key of each component state is read: a state
        missing any one of them is refused, never filled with a default."""
        if policy == "zoned":
            make = _zoned_session
        else:
            spec = RunSpec(
                workload="tpcc",
                policy=policy,
                audit=True,
                timeline_interval=300.0,
                faults_json=_fault_plan().to_json(),
            )

            def make():
                return SnapshotSession(spec)

        payload = _capture_at(make(), 7000)
        # Restores are refused before the replay starts, so one fresh
        # session takes every attempt.
        fresh = make()
        for name, state in payload["states"].items():
            for key in state:
                states = {
                    **payload["states"],
                    name: {k: v for k, v in state.items() if k != key},
                }
                with pytest.raises(SnapshotError, match=re.escape(repr(name))):
                    fresh.resume({"meta": payload["meta"], "states": states})


class TestRunSpec:
    def test_round_trips_through_dict(self):
        spec = RunSpec(
            workload="tpch",
            policy="proposed",
            full=True,
            audit=True,
            timeline_interval=60.0,
            faults_json=_fault_plan().to_json(),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValidationError, match="unknown workload"):
            RunSpec(workload="mysql", policy="proposed")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="unknown policy"):
            RunSpec(workload="tpcc", policy="magic")

    def test_non_positive_timeline_interval_rejected(self):
        with pytest.raises(ValidationError, match="timeline_interval"):
            RunSpec(workload="tpcc", policy="pdc", timeline_interval=0.0)

    def test_fault_plan_decodes(self):
        plan = _fault_plan()
        spec = RunSpec(
            workload="tpcc", policy="pdc", faults_json=plan.to_json()
        )
        assert spec.fault_plan() == plan
        assert RunSpec(workload="tpcc", policy="pdc").fault_plan() is None
