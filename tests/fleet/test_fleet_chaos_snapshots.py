"""Fleet chaos plans and per-array snapshot/resume."""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.experiments.parallel import (
    ExperimentEngine,
    PolicySpec,
    WorkloadSpec,
)
from repro.experiments.testbed import build_workload
from repro.faults.plan import EnclosureOutage
from repro.fleet import FleetRunner, HashRouter, array_outage_plans
from repro.persistence import RunSpec, SnapshotSession
from repro.persistence.format import load_snapshot


def test_array_outage_plans_are_namespaced_and_deterministic():
    workload = build_workload("fileserver", full=False)
    router = HashRouter(3, seed=7)
    plans = array_outage_plans(workload, router, victims=[0, 2], seed=11)
    assert sorted(plans) == [0, 2]
    for victim, plan in plans.items():
        prefix = f"array-{victim:02d}:"
        outages = [
            e for e in plan.events if isinstance(e, EnclosureOutage)
        ]
        assert outages, "an outage plan must contain outage events"
        for event in outages:
            assert event.enclosure.startswith(prefix)
    again = array_outage_plans(workload, router, victims=[0, 2], seed=11)
    assert plans == again  # derived from the seed alone
    assert plans != array_outage_plans(
        workload, router, victims=[0, 2], seed=12
    )


def test_array_outage_plans_validate_victims():
    workload = build_workload("fileserver", full=False)
    router = HashRouter(2)
    with pytest.raises(ValidationError):
        array_outage_plans(workload, router, victims=[2])
    with pytest.raises(ValidationError):
        array_outage_plans(workload, router, victims=[1, 1])


def test_fleet_run_with_array_outage_passes_global_audit():
    workload = build_workload("fileserver", full=False)
    runner = FleetRunner(3, router_seed=7)
    plans = array_outage_plans(workload, runner.router(), [1], seed=11)
    faultless = runner.run(
        WorkloadSpec(name="fileserver", full=False),
        PolicySpec(name="proposed"),
        engine=ExperimentEngine(jobs=1, cache_dir=None),
    )
    faulted = runner.run(
        WorkloadSpec(name="fileserver", full=False),
        PolicySpec(name="proposed"),
        audit=True,
        faults=plans,
        engine=ExperimentEngine(jobs=1, cache_dir=None),
    )
    # The global audit ran inside run(); the per-array auditors too.
    assert faulted.audit_checks > 0
    # Outage hit only the victim: other arrays replay bit-identically.
    for index in (0, 2):
        assert asdict(faulted.arrays[index].replay) == asdict(
            faultless.arrays[index].replay
        )
    assert asdict(faulted.arrays[1].replay) != asdict(
        faultless.arrays[1].replay
    )


def test_fleet_run_rejects_out_of_range_fault_plan():
    runner = FleetRunner(2)
    workload = build_workload("fileserver", full=False)
    plans = array_outage_plans(workload, HashRouter(3), [2], seed=11)
    with pytest.raises(ValidationError):
        runner.cells(
            WorkloadSpec(name="fileserver", full=False),
            PolicySpec(name="proposed"),
            faults=plans,
        )


def test_per_array_snapshot_resume_is_bit_identical(tmp_path: Path):
    spec = RunSpec(
        workload="fileserver",
        policy="proposed",
        n_arrays=3,
        array_index=1,
        router_seed=7,
        timeline_interval=300.0,
    )
    uninterrupted = SnapshotSession(spec).run()
    session = SnapshotSession(spec)
    session.run(snapshot_every=2500, snapshot_dir=tmp_path)
    snapshots = sorted(tmp_path.glob("*.ecsn"))
    assert snapshots, "the sharded run must be long enough to snapshot"
    resumed = SnapshotSession(spec).resume(load_snapshot(snapshots[0]))
    assert asdict(resumed) == asdict(uninterrupted)
    assert resumed.actions == uninterrupted.actions
    # The sharded session replays only this array's slice, namespaced.
    assert session.workload.io_count < build_workload(
        "fileserver", False
    ).io_count
    for name in session.context.enclosure_names():
        assert name.startswith("array-01:")


def test_run_spec_validates_fleet_coordinates():
    with pytest.raises(ValidationError):
        RunSpec(workload="fileserver", policy="proposed", n_arrays=0)
    with pytest.raises(ValidationError):
        RunSpec(
            workload="fileserver",
            policy="proposed",
            n_arrays=2,
            array_index=2,
        )


def test_run_spec_round_trips_fleet_coordinates():
    spec = RunSpec(
        workload="fileserver",
        policy="ddr",
        n_arrays=4,
        array_index=3,
        router_seed=9,
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec
