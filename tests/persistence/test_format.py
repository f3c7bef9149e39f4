"""Tests for the .ecsn snapshot envelope: every corruption mode refused."""

import pickle
import struct

import pytest

from repro.errors import SnapshotError
from repro.persistence.format import (
    FORMAT_VERSION,
    MAGIC,
    find_latest_valid,
    load_snapshot,
    snapshot_count,
    snapshot_filename,
    write_snapshot,
)

PAYLOAD = {"meta": {"count": 7, "ts": 1.5}, "states": {"kernel": {"x": 1}}}


class TestRoundTrip:
    def test_write_then_load_round_trips(self, tmp_path):
        path = tmp_path / snapshot_filename(7)
        write_snapshot(path, PAYLOAD)
        assert load_snapshot(path) == PAYLOAD

    def test_no_temp_files_left_behind(self, tmp_path):
        write_snapshot(tmp_path / snapshot_filename(1), PAYLOAD)
        assert [p.name for p in tmp_path.iterdir()] == [snapshot_filename(1)]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / snapshot_filename(1)
        write_snapshot(path, PAYLOAD)
        second = {"meta": {"count": 1, "ts": 9.0}, "states": {}}
        write_snapshot(path, second)
        assert load_snapshot(path) == second


class TestFilenames:
    def test_filename_encodes_count_sortably(self):
        assert snapshot_filename(42) == "snap-0000000042.ecsn"
        assert snapshot_filename(9) < snapshot_filename(10)

    def test_count_round_trips(self):
        assert snapshot_count(snapshot_filename(123456)) == 123456

    def test_foreign_names_rejected(self):
        with pytest.raises(SnapshotError):
            snapshot_count("checkpoint.bin")
        with pytest.raises(SnapshotError):
            snapshot_count("snap-abc.ecsn")


class TestRefusal:
    """Every way a file can be bad must raise SnapshotError — never a
    silent partial load."""

    def _written(self, tmp_path):
        path = tmp_path / snapshot_filename(3)
        write_snapshot(path, PAYLOAD)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.ecsn")

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.ecsn"
        path.write_bytes(b"ECSN")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = self._written(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="unsupported format version"):
            load_snapshot(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_version_refused(self, tmp_path, version):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        with pytest.raises(
            SnapshotError, match=f"older release \\(format version {version}\\)"
        ):
            load_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(SnapshotError, match="truncated or corrupt"):
            load_snapshot(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + b"tail")
        with pytest.raises(SnapshotError, match="truncated or corrupt"):
            load_snapshot(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="CRC-32"):
            load_snapshot(path)

    def test_undecodable_payload(self, tmp_path):
        import zlib

        blob = b"\x80not a pickle"
        header = struct.pack(
            "<4sIQI", MAGIC, FORMAT_VERSION, len(blob),
            zlib.crc32(blob) & 0xFFFFFFFF,
        )
        path = tmp_path / "bad-pickle.ecsn"
        path.write_bytes(header + blob)
        with pytest.raises(SnapshotError, match="does not decode"):
            load_snapshot(path)

    def test_wrong_payload_shape(self, tmp_path):
        import zlib

        blob = pickle.dumps(["not", "a", "document"])
        header = struct.pack(
            "<4sIQI", MAGIC, FORMAT_VERSION, len(blob),
            zlib.crc32(blob) & 0xFFFFFFFF,
        )
        path = tmp_path / "wrong-shape.ecsn"
        path.write_bytes(header + blob)
        with pytest.raises(SnapshotError, match="meta/states"):
            load_snapshot(path)


class TestFindLatestValid:
    def test_empty_directory_has_none(self, tmp_path):
        assert find_latest_valid(tmp_path) is None

    def test_newest_valid_wins(self, tmp_path):
        for count in (100, 200, 300):
            write_snapshot(tmp_path / snapshot_filename(count), PAYLOAD)
        latest = find_latest_valid(tmp_path)
        assert latest is not None
        assert snapshot_count(latest) == 300

    def test_torn_newest_falls_back(self, tmp_path):
        for count in (100, 200):
            write_snapshot(tmp_path / snapshot_filename(count), PAYLOAD)
        newest = tmp_path / snapshot_filename(200)
        newest.write_bytes(newest.read_bytes()[:-3])
        latest = find_latest_valid(tmp_path)
        assert latest is not None
        assert snapshot_count(latest) == 100

    def test_all_invalid_gives_none(self, tmp_path):
        (tmp_path / snapshot_filename(1)).write_bytes(b"junk")
        assert find_latest_valid(tmp_path) is None
