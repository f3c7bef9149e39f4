"""The ``.ecsn`` snapshot envelope: versioned, checksummed, torn-write safe.

A snapshot file is one fixed header followed by one pickled payload::

    offset  size  field
    0       4     magic ``b"ECSN"``
    4       4     format version (u32, little-endian) — currently 5
    8       8     payload length in bytes (u64, little-endian)
    16      4     CRC-32 of the payload bytes (u32, little-endian)
    20      len   payload: ``pickle.dumps({"meta": ..., "states": ...})``

Each entry of ``states`` is one component's
:meth:`~repro.capture.Snapshottable.snapshot_state`: its attributes,
minus the ones construction rebuilds.

The layout mirrors the ``.ecot`` trace header (magic + version + CRC):
every field the loader trusts is verified before a single byte of state
is interpreted.  :func:`write_snapshot` is atomic against crashes —
the bytes go to a temporary file in the destination directory, are
fsync'd, and only then renamed over the final name — so a reader never
observes a half-written ``snap-*.ecsn``; a crash mid-write leaves at
worst a stray ``*.tmp`` the loader ignores.

:func:`load_snapshot` *refuses* anything that does not verify — short
header, wrong magic, unknown version, truncated or oversized payload,
CRC mismatch, undecodable pickle — by raising
:class:`~repro.errors.SnapshotError`.  No state is ever partially
restored from a bad file; :func:`find_latest_valid` embodies the
recovery policy of skipping back to the newest snapshot that fully
verifies.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path

from repro.errors import SnapshotError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SNAPSHOT_SUFFIX",
    "find_latest_valid",
    "load_snapshot",
    "snapshot_filename",
    "snapshot_count",
    "write_snapshot",
]

#: First four bytes of every snapshot file.
MAGIC = b"ECSN"

#: Envelope version written by :func:`write_snapshot`, the only one
#: :func:`load_snapshot` reads.  Version 5: every component state is
#: the component's attributes, minus the ones construction rebuilds
#: (:class:`repro.capture.Snapshottable`); version 4 also carried the
#: write-only books that version 5 dropped (the enclosure's state-entry
#: time, the block map, ``replicated_bytes``, ``migrations_aborted``).
FORMAT_VERSION = 5

#: File-name suffix of snapshot files.
SNAPSHOT_SUFFIX = ".ecsn"

_HEADER = struct.Struct("<4sIQI")


def snapshot_filename(count: int) -> str:
    """Canonical file name for the snapshot taken after record ``count``.

    Zero-padded so lexicographic order equals record order — the
    recovery scan sorts names, newest last.
    """
    return f"snap-{count:010d}{SNAPSHOT_SUFFIX}"


def snapshot_count(path: str | os.PathLike) -> int:
    """Record count encoded in a :func:`snapshot_filename`-style name."""
    name = Path(path).name
    if not (name.startswith("snap-") and name.endswith(SNAPSHOT_SUFFIX)):
        raise SnapshotError(f"not a snapshot file name: {name!r}")
    digits = name[len("snap-"):-len(SNAPSHOT_SUFFIX)]
    if not digits.isdigit():
        raise SnapshotError(f"not a snapshot file name: {name!r}")
    return int(digits)


def write_snapshot(path: str | os.PathLike, payload: dict) -> Path:
    """Atomically write ``payload`` as a snapshot file at ``path``.

    The payload is pickled, wrapped in the checksummed envelope, written
    to a temporary sibling, fsync'd, and renamed into place — the
    same temp-file + fsync + ``os.replace`` discipline a write-ahead log
    uses, so a crash at any instant leaves either the previous file (or
    nothing) or the complete new file, never a torn one.
    """
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(blob), zlib.crc32(blob) & 0xFFFFFFFF
    )
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    # Cleanup must cover KeyboardInterrupt too — a stray tmp file on ^C
    # would otherwise accumulate; the exception is always re-raised.
    except BaseException:  # check: ignore[R7]
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory when the
    # platform allows opening one (best-effort elsewhere).
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return path
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
    return path


def load_snapshot(path: str | os.PathLike) -> dict:
    """Read and fully verify one snapshot file.

    Returns the ``{"meta": ..., "states": ...}`` payload.  Raises
    :class:`~repro.errors.SnapshotError` for *every* way the file can be
    unusable — unreadable, header too short, wrong magic, unsupported
    version, truncated or over-long payload, checksum mismatch, payload
    that does not unpickle, or a payload of the wrong shape.  A file
    that loads is bytewise intact end to end.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot {path} is truncated: {len(data)} bytes is shorter "
            f"than the {_HEADER.size}-byte header"
        )
    magic, version, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(
            f"snapshot {path} has bad magic {magic!r} (expected {MAGIC!r})"
        )
    if version < FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path} is from an older release (format version "
            f"{version}); re-run"
        )
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path} has unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    blob = data[_HEADER.size:]
    if len(blob) != length:
        raise SnapshotError(
            f"snapshot {path} payload is {len(blob)} bytes but the header "
            f"declares {length}: truncated or corrupt"
        )
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise SnapshotError(
            f"snapshot {path} failed its CRC-32 check: payload corrupt"
        )
    # A corrupt-but-CRC-matching blob can raise nearly anything from
    # inside pickle (UnpicklingError, EOFError, AttributeError, ...).
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # check: ignore[R7]
        raise SnapshotError(
            f"snapshot {path} payload does not decode: {exc}"
        ) from exc
    if (
        not isinstance(payload, dict)
        or "meta" not in payload
        or "states" not in payload
    ):
        raise SnapshotError(
            f"snapshot {path} payload is not a meta/states document"
        )
    return payload


def find_latest_valid(directory: str | os.PathLike) -> Path | None:
    """Newest snapshot in ``directory`` that fully verifies, or ``None``.

    Scans ``snap-*.ecsn`` names newest-first and skips (does not delete)
    any file :func:`load_snapshot` refuses — this is the crash-recovery
    entry point: a torn or corrupt newest snapshot falls back to the
    one before it.
    """
    candidates = sorted(
        Path(directory).glob(f"snap-*{SNAPSHOT_SUFFIX}"), reverse=True
    )
    for candidate in candidates:
        try:
            load_snapshot(candidate)
        except SnapshotError:
            continue
        return candidate
    return None
