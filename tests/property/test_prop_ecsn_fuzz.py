"""Property tests: a damaged ``.ecsn`` snapshot is refused, never half-read.

A real snapshot of a smoke TPC-C replay under DDR with the ``storm``
fault plan, the auditor and a power timeline is written once; its bytes
are then truncated, flipped and spliced.

* Damage to the file is refused by :func:`load_snapshot` with a
  :class:`~repro.errors.SnapshotError` (the CRC-32 covers every payload
  byte and the header declares its length), so nothing reaches a
  restore; :func:`find_latest_valid` falls back to the older snapshot.
* Damage to the payload that is re-sealed with a matching length and
  CRC — the bytes a buggy writer would produce — still ends in a typed
  :mod:`repro.errors` exception at load or at restore, or restores
  whole.  A component whose state is refused is left exactly as it
  was: no restore is partial.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SnapshotError
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.persistence.format import (
    find_latest_valid,
    load_snapshot,
    snapshot_filename,
)
from repro.persistence.session import RunSpec, SnapshotSession

_HEADER = struct.Struct("<4sIQI")


def _spec() -> RunSpec:
    workload = build_workload("tpcc", False)
    names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
    plan = build_fault_plan(
        "storm", 0, workload.duration, names, workload.item_ids()
    )
    return RunSpec(
        workload="tpcc",
        policy="ddr",
        audit=True,
        timeline_interval=300.0,
        faults_json=plan.to_json(),
    )


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """``(spec, directory, newest file bytes, its payload)``: snapshots
    every 3,000 records of the faulted DDR cell."""
    spec = _spec()
    directory = tmp_path_factory.mktemp("snapshots")
    SnapshotSession(spec).run(snapshot_every=3000, snapshot_dir=directory)
    newest = find_latest_valid(directory)
    assert newest is not None and newest.name != snapshot_filename(3000)
    image = newest.read_bytes()
    return spec, directory, newest, image, load_snapshot(newest)


@pytest.fixture(scope="module")
def target(snapshot):
    """One session every re-sealed payload is restored into.

    Restore overwrites every component it accepts, so a session left
    holding an earlier example's values serves the next one as well.
    """
    return SnapshotSession(snapshot[0])


#: Byte positions: biased toward the header, where the length and CRC
#: sit, and otherwise anywhere in the file.
positions = st.one_of(st.integers(0, 31), st.integers(0, 10**6))

mutations = st.one_of(
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("flip"), positions, st.integers(1, 255)),
    st.tuples(st.just("splice"), positions, positions, positions),
)


def _mutate(image: bytes, steps) -> bytes:
    data = bytearray(image)
    for step in steps:
        kind, position = step[0], step[1] % (len(data) + 1)
        if kind == "truncate":
            del data[position:]
        elif kind == "flip" and position < len(data):
            data[position] ^= step[2]
        elif kind == "splice":
            # Replace data[position:end] with another stretch of itself.
            end = min(len(data), position + step[2] % 64)
            source = step[3] % (len(data) + 1)
            data[position:end] = data[source : source + step[2] % 64]
    return bytes(data)


def _resealed(image: bytes, steps) -> bytes:
    """``image`` with its payload damaged and the header made to match."""
    magic, version, _, _ = _HEADER.unpack_from(image)
    blob = _mutate(image[_HEADER.size :], steps)
    header = _HEADER.pack(magic, version, len(blob), zlib.crc32(blob))
    return header + blob


@given(steps=st.lists(mutations, min_size=1, max_size=3))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_damaged_file_is_refused(snapshot, steps, tmp_path):
    spec, _, newest, image, payload = snapshot
    damaged = _mutate(image, steps)
    path = tmp_path / newest.name
    path.write_bytes(damaged)
    if damaged == image:
        assert load_snapshot(path) == payload
        return
    with pytest.raises(SnapshotError):
        load_snapshot(path)


@given(steps=st.lists(mutations, min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_recovery_skips_a_damaged_newest_file(snapshot, steps):
    _, directory, newest, image, _ = snapshot
    damaged = _mutate(image, steps)
    if damaged == image:
        return
    newest.write_bytes(damaged)
    try:
        found = find_latest_valid(directory)
    finally:
        newest.write_bytes(image)
    assert found is not None and found.name < newest.name


def _captured(component) -> bytes:
    # Bytes, not ==: a restored NaN never equals itself.
    return pickle.dumps(component.snapshot_state())


def _restore_each(session: SnapshotSession, payload: dict) -> None:
    """Restore ``payload`` component by component; a refused component
    must be left exactly as it was."""
    states = payload.get("states")
    if not isinstance(states, dict):
        return
    for name, component in session._components().items():
        if name not in states:
            continue
        before = _captured(component)
        try:
            component.restore_state(states[name])
        except ReproError:
            assert _captured(component) == before, name


@given(steps=st.lists(mutations, min_size=1, max_size=3))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_resealed_damage_ends_typed_or_restores_whole(
    snapshot, target, steps, tmp_path
):
    _, _, newest, image, _ = snapshot
    path = tmp_path / newest.name
    path.write_bytes(_resealed(image, steps))
    try:
        payload = load_snapshot(path)
    except SnapshotError:
        return
    try:
        target.restore(payload)
    except ReproError:
        pass
    _restore_each(target, payload)
