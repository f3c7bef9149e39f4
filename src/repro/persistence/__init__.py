"""Crash-safe snapshot/restore for the simulation (``.ecsn`` files).

Three layers, bottom up:

* :mod:`repro.persistence.format` — the versioned, CRC-checksummed,
  torn-write-safe file envelope and the recovery scan
  (:func:`find_latest_valid`).  What each component puts in it is the
  generic attribute capture of :class:`repro.capture.Snapshottable`.
* :mod:`repro.persistence.session` — :class:`SnapshotSession`: run a
  replay with periodic whole-state snapshots, or restore one and resume
  to a bit-identical :class:`~repro.trace.replay.ReplayResult`.
* :mod:`repro.persistence.harness` — the crash-injection sweep that
  proves the bit-identity claim (``ecostor crash-test``).

See ``docs/snapshots.md`` for the byte layout and resume semantics.
"""

from repro.capture import Snapshottable
from repro.persistence.format import (
    FORMAT_VERSION,
    MAGIC,
    SNAPSHOT_SUFFIX,
    find_latest_valid,
    load_snapshot,
    snapshot_count,
    snapshot_filename,
    write_snapshot,
)
from repro.persistence.harness import (
    CrashTrial,
    RecoveryReport,
    run_crash_sweep,
)
from repro.persistence.session import RunSpec, SnapshotSession, read_meta

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SNAPSHOT_SUFFIX",
    "CrashTrial",
    "RecoveryReport",
    "RunSpec",
    "SnapshotSession",
    "Snapshottable",
    "find_latest_valid",
    "load_snapshot",
    "read_meta",
    "run_crash_sweep",
    "snapshot_count",
    "snapshot_filename",
    "write_snapshot",
]
