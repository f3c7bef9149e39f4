"""Golden bit-identity regression for the replay engine.

The :mod:`repro.engine` kernel replaced the hand-threaded time loop of
the original ``TraceReplayer``.  The hard bar for that refactor — and
for any future change to event dispatch order — is that every policy's
replay stays **bit-identical**: same :class:`~repro.trace.replay.ReplayResult`
(including the :class:`~repro.faults.report.AvailabilityReport`), same
:class:`~repro.core.manager.ManagementSnapshot` sequence, same
:class:`~repro.monitoring.timeline.PowerTimeline` points, float for
float.

``tests/trace/golden/replay_fileserver_smoke.json`` was captured from
the pre-kernel engine (commit ``3b358ca``) and must never be
regenerated to paper over a mismatch: a diff here means the engine's
decision sequence changed.  Legitimate regeneration (a deliberate,
reviewed semantic change) is::

    PYTHONPATH=src python tests/trace/test_replay_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments.runner import STANDARD_POLICIES
from repro.experiments.testbed import build_workload
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    FaultPlan,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)
from repro.monitoring.timeline import PowerTimeline
from repro.simulation import build_context
from repro.trace.columnar import ColumnarTrace
from repro.trace.replay import TraceReplayer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / (
    "replay_fileserver_smoke.json"
)

#: Power-timeline cadence used by the golden capture (seconds).
TIMELINE_INTERVAL = 300.0


def _fault_plan(first_item: str) -> FaultPlan:
    """Deterministic fault plan exercising every injection point."""
    return FaultPlan(
        events=(
            SpinUpFailure(enclosure="enc-03", after=300.0, failures=2),
            SlowSpinUp(
                enclosure="enc-05", start=0.0, end=3600.0, multiplier=2.0
            ),
            EnclosureOutage(enclosure="enc-01", start=900.0, end=1200.0),
            CacheBatteryFailure(time=2400.0),
            MigrationAbort(item_id=first_item, after=600.0),
        )
    )


def _capture_cell(
    policy_name: str, with_faults: bool, columnar: bool = False
) -> dict:
    """Replay one (policy, fault?) cell and flatten every measurement.

    ``columnar=False`` hands the replayer the list of record objects,
    which it packs itself; ``columnar=True`` hands it a ready
    :class:`~repro.trace.columnar.ColumnarTrace`.  Both inputs are held
    to the very same golden file.
    """
    workload = build_workload("fileserver", full=False)
    faults = (
        _fault_plan(workload.items[0].item_id) if with_faults else None
    )
    context = build_context(
        DEFAULT_CONFIG, workload.enclosure_count, faults=faults
    )
    workload.install(context)
    timeline = PowerTimeline(
        context.enclosures, interval_seconds=TIMELINE_INTERVAL
    )
    policy = STANDARD_POLICIES[policy_name]()
    records: object = workload.records
    if columnar:
        records = ColumnarTrace.from_records(workload.records)
    result = TraceReplayer(context, policy, timeline=timeline).run(
        records, duration=workload.duration
    )
    cell = {"replay": asdict(result)}
    # The action log is pinned by hash: whole logs would add about
    # 1.5 MB of records, and a reordered flush or move changes the hash.
    cell["actions_sha256"] = hashlib.sha256(
        json.dumps(
            [record.to_dict() for record in result.actions], sort_keys=True
        ).encode("utf-8")
    ).hexdigest()
    cell["timeline"] = [
        {
            "timestamp": point.timestamp,
            "total_watts": point.total_watts,
            "per_enclosure": point.per_enclosure,
        }
        for point in timeline.points
    ]
    if isinstance(policy, EnergyEfficientPolicy):
        cell["snapshots"] = [
            {
                **asdict(snapshot),
                "pattern_counts": {
                    pattern.value: count
                    for pattern, count in snapshot.pattern_counts.items()
                },
            }
            for snapshot in policy.snapshots
        ]
    return cell


def capture_all(columnar: bool = False) -> dict:
    """Capture every golden cell: four policies, with and without faults."""
    cells = {}
    for with_faults in (False, True):
        for policy_name in STANDARD_POLICIES:
            label = f"{policy_name}{'+faults' if with_faults else ''}"
            cells[label] = _capture_cell(
                policy_name, with_faults, columnar=columnar
            )
    return cells


# ---------------------------------------------------------------------
# Snapshot/restore round-trip property (repro.persistence)
# ---------------------------------------------------------------------
#
# The crash-safety claim extends the golden claim: not only must every
# replay be bit-identical run to run, it must stay bit-identical when
# snapshotted at an *arbitrary* record boundary and resumed in a fresh
# process-worth of state.  Hypothesis picks the policy and the boundary;
# the golden (uninterrupted) surface is computed once per policy.

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.persistence import RunSpec, SnapshotSession


def _snapshot_surface(result, session):
    """Everything the round-trip property compares, as plain data."""
    timeline = tuple(session.timeline.points)
    return (asdict(result), result.actions, timeline)


def _snapshot_spec(policy_name: str) -> RunSpec:
    return RunSpec(
        workload="tpcc",
        policy=policy_name,
        timeline_interval=TIMELINE_INTERVAL,
    )


@lru_cache(maxsize=None)
def _uninterrupted(policy_name: str):
    """Golden surface + record count for one policy, computed once."""
    session = SnapshotSession(_snapshot_spec(policy_name))
    result = session.run()
    return _snapshot_surface(result, session), result.io_count


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    policy_name=st.sampled_from(tuple(STANDARD_POLICIES)),
    fraction=st.floats(min_value=0.001, max_value=0.999),
)
def test_snapshot_restore_round_trip_is_bit_identical(
    policy_name, fraction, tmp_path_factory
):
    """Snapshot at any record boundary, restore, finish: same result.

    The snapshot goes through the full on-disk ``.ecsn`` envelope (not
    just an in-memory dict), so the property also covers the pickle +
    checksum round trip.
    """
    from repro.persistence import load_snapshot, write_snapshot
    from repro.persistence.format import snapshot_filename

    golden, io_count = _uninterrupted(policy_name)
    boundary = max(1, min(io_count, int(fraction * io_count)))
    directory = tmp_path_factory.mktemp("ecsn-prop")
    path = directory / snapshot_filename(boundary)

    session = SnapshotSession(_snapshot_spec(policy_name))

    def hook(count, ts):
        if count == boundary:
            write_snapshot(path, session.capture(count, ts))

    first = session.run(record_hook=hook)
    assert _snapshot_surface(first, session) == golden

    resumed_session = SnapshotSession(_snapshot_spec(policy_name))
    resumed = resumed_session.resume(load_snapshot(path))
    assert _snapshot_surface(resumed, resumed_session) == golden


@pytest.mark.parametrize("columnar", [False, True], ids=["object", "columnar"])
def test_replay_bit_identical_to_golden(columnar):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    captured = json.loads(json.dumps(capture_all(columnar=columnar)))
    assert captured.keys() == golden.keys()
    for label in golden:
        assert captured[label] == golden[label], (
            f"replay of cell {label!r} ({'columnar' if columnar else 'object'}"
            " input) diverged from the pre-kernel golden result — the "
            "engine's decision sequence changed"
        )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run without --regen (see module docstring)")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(capture_all(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
