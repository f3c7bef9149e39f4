"""Tests for SnapshotSession: resume bit-identity and refusal paths."""

from dataclasses import asdict

import pytest

from repro.baselines.ddr import DDRPolicy
from repro.baselines.zoned import Zone, ZonedPolicy
from repro.core.manager import EnergyEfficientPolicy
from repro.engine.kernel import SimulationKernel
from repro.errors import SnapshotError, ValidationError
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
    """Run ``session`` to the end; the payload it captured at ``boundary``."""
    captured = {}

    def hook(count, ts):
        if count == boundary:
            captured["payload"] = session.capture(count, ts)

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


def _retired_monitor_state(state, array_state, session, items=None):
    """A monitor ``state`` rewritten in the retired format, which copied
    every I/O the monitor recorded: all served rows, or for a zone's
    monitor the rows of the zone's ``items``."""
    trace = session.workload.columnar()
    responses = array_state["responses"]
    rows = [
        row
        for row in range(len(responses))
        if items is None or trace.items[trace.item_index[row]] in items
    ]
    window = [trace[row] for row in rows if row >= state["window_row"]]
    samples = [
        (trace.timestamps[row], responses[row], trace[row].is_read) for row in rows
    ]
    totals = {"response_sum": 0.0, "read_response_sum": 0.0, "max_response": 0.0}
    ios_per_item = {}
    for row, (_, response, is_read) in zip(rows, samples):
        totals["response_sum"] += response
        if is_read:
            totals["read_response_sum"] += response
        totals["max_response"] = max(totals["max_response"], response)
        item = trace.items[trace.item_index[row]]
        ios_per_item[item] = ios_per_item.get(item, 0) + 1
    return {
        "window": {
            "timestamps": [rec.timestamp for rec in window],
            "item_ids": [rec.item_id for rec in window],
            "sizes": [rec.size for rec in window],
            "reads": [rec.is_read for rec in window],
        },
        "window_start": state["window_start"],
        "item_volume": state["item_volume"],
        "io_count": len(rows),
        "read_count": sum(1 for _, _, is_read in samples if is_read),
        **totals,
        "ios_per_item": list(ios_per_item.items()),
        "response_samples": samples,
    }


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

    def test_monitor_state_with_retired_keys_resumes_bit_identically(self):
        """States written while the application monitor copied every I/O
        (window columns, response samples, per-item counters and
        running totals, and before that the full trace and the window's
        offset and sequential columns) restore, and the resumed replay
        matches the uninterrupted one."""
        spec = RunSpec(workload="tpcc", policy="proposed")
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        session = SnapshotSession(spec)
        payload = _capture_at(session, golden.io_count // 2)
        states = payload["states"]
        state = _retired_monitor_state(
            states["app_monitor"], states["app_monitor"], session
        )
        assert state["window"]["timestamps"]  # the seam falls inside a window
        state["window"]["offsets"] = [0] * len(state["window"]["timestamps"])
        state["window"]["sequentials"] = [False] * len(state["window"]["timestamps"])
        state["full_trace"] = list(session.workload.records[: state["io_count"]])
        states["app_monitor"] = state
        fresh = SnapshotSession(spec)
        resumed = fresh.resume(payload)
        assert _surface(resumed, fresh) == _surface(golden, golden_session)
        assert set(fresh.context.app_monitor.snapshot_state()) == {
            "window_row",
            "window_start",
            "item_volume",
            "responses",
        }

    def test_zone_monitor_states_with_retired_keys_resume_bit_identically(self):
        """A zoned run's zone monitors once copied the I/O of their own
        zone's items; states in that format restore, each zone window
        found in the array's trace, and the resumed replay matches the
        uninterrupted one."""
        golden_session = _zoned_session()
        golden = golden_session.run()
        session = _zoned_session()
        payload = _capture_at(session, golden.io_count * 2 // 3)
        states = payload["states"]
        array_state = states["app_monitor"]
        states["app_monitor"] = _retired_monitor_state(
            array_state, array_state, session
        )
        partial = 0
        for zone in session.policy.zones:
            zone_states = states["policy"]["zones"][zone.name]
            retired = _retired_monitor_state(
                zone_states["app_monitor"],
                array_state,
                session,
                set(zone.policy.context.virtualization.item_ids()),
            )
            window = retired["window"]["timestamps"]
            # The zone's window holds fewer rows than the array's rows
            # since the window began: other zones' I/O sits between.
            served_since = payload["meta"]["count"] - zone_states["app_monitor"]["window_row"]
            partial += 0 < len(window) < served_since
            zone_states["app_monitor"] = retired
        assert partial
        fresh = _zoned_session()
        resumed = fresh.resume(payload)
        assert _surface(resumed, fresh) == _surface(golden, golden_session)

    def test_response_count_off_the_cursor_is_refused(self):
        spec = RunSpec(workload="tpcc", policy="ddr")
        session = SnapshotSession(spec)
        payload = _capture_at(session, 500)
        payload["states"]["app_monitor"]["responses"].pop()
        with pytest.raises(SnapshotError, match="499 responses"):
            SnapshotSession(spec).resume(payload)

    def test_kernel_state_with_retired_queue_resumes_bit_identically(self):
        """Snapshots written while the kernel kept an event heap carry its
        one timeline-sample entry, and a ``migration_engine`` component
        state; both restore, and the resumed replay matches the
        uninterrupted one, timeline points included."""
        spec = RunSpec(workload="tpcc", policy="pdc", timeline_interval=300.0)
        golden_session = SnapshotSession(spec)
        golden = golden_session.run()
        boundary = golden.io_count // 2
        session = SnapshotSession(spec)
        captured = {}

        def hook(count, ts):
            if count == boundary:
                captured["payload"] = session.capture(count, ts)

        session.run(record_hook=hook)
        payload = captured["payload"]
        states = payload["states"]
        next_sample = states["timeline"]["next_sample"]
        states["kernel"]["queue_entries"] = [
            (7, ("timeline_sample", next_sample, None))
        ]
        states["kernel"]["queue_next_seq"] = 8
        states["migration_engine"] = {
            "total_bytes_moved": 0,
            "total_moves": 0,
            "total_aborts": 0,
        }
        fresh = SnapshotSession(spec)
        resumed = fresh.resume(payload)
        assert _surface(resumed, fresh) == _surface(golden, golden_session)
        assert set(fresh.kernel.snapshot_state()) == {
            "clock",
            "scheduled_checkpoint",
            "finished",
        }

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
        session = SnapshotSession(spec)
        captured = {}

        def hook(count, ts):
            if count == 500:
                captured["payload"] = session.capture(count, ts)

        session.run(record_hook=hook)
        return spec, captured["payload"]

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

    def test_snapshot_every_without_dir_rejected(self):
        session = SnapshotSession(RunSpec(workload="tpcc", policy="pdc"))
        with pytest.raises(ValidationError, match="snapshot_dir"):
            session.run(snapshot_every=100)

    def test_negative_snapshot_every_rejected(self, tmp_path):
        session = SnapshotSession(RunSpec(workload="tpcc", policy="pdc"))
        with pytest.raises(ValidationError, match="non-negative"):
            session.run(snapshot_every=-1, snapshot_dir=tmp_path)


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

    def test_retired_columnar_key_is_dropped(self):
        spec = RunSpec(workload="tpcc", policy="ddr")
        legacy = {**spec.to_dict(), "columnar": True}
        assert RunSpec.from_dict(legacy) == spec

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
