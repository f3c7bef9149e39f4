"""Tests for the CLI's top-level error mapping.

``main()`` turns every *domain* error — bad traces, invalid arguments,
API misuse, audit failures, unusable snapshots — into exit status 2
with a one-line ``ecostor: error: ...`` diagnostic on stderr.  Anything
else is a bug and must still propagate as a traceback.
"""

import struct

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.placement import HotSetTooSmall
from repro.errors import AuditError, PlacementError
from repro.persistence import (
    RunSpec,
    SnapshotSession,
    snapshot_filename,
    write_snapshot,
)


_SPEC = RunSpec(workload="tpcc", policy="pdc")


def _empty_meta():
    return {"meta": {}, "states": {}}


def _spec_with_unknown_key():
    spec = {**_SPEC.to_dict(), "columnar": True}
    return {"meta": {"spec": spec, "count": 1, "ts": 0.0}, "states": {}}


def _kernel_state_without_clock():
    """A real payload captured after record 500, its kernel clock gone."""
    session = SnapshotSession(_SPEC)
    captured = {}

    def hook(count, ts):
        if count == 500:
            captured["payload"] = session.capture(count, ts)

    session.run(record_hook=hook)
    del captured["payload"]["states"]["kernel"]["clock"]
    return captured["payload"]


def _meta_as_string():
    return {"meta": "spec", "states": {}}


def _meta_with(**fields):
    """A payload whose meta holds a valid spec, count and ts, then ``fields``."""

    def payload():
        meta = {"spec": _SPEC.to_dict(), "count": 1, "ts": 0.0, **fields}
        return {"meta": meta, "states": {}}

    return payload


class TestDomainErrorsExitTwo:
    def test_usage_error_from_mismatched_snapshot_flags(self, capsys):
        status = main(
            ["run", "fileserver", "proposed", "--snapshot-every", "100"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "--snapshot-dir" in err

    def test_validation_error_from_negative_snapshot_every(
        self, capsys, tmp_path
    ):
        status = main(
            [
                "run", "fileserver", "proposed",
                "--snapshot-every", "-5",
                "--snapshot-dir", str(tmp_path),
            ]
        )
        assert status == 2
        assert "non-negative" in capsys.readouterr().err

    def test_snapshot_error_from_corrupt_snapshot(self, capsys, tmp_path):
        bad = tmp_path / "snap-0000000001.ecsn"
        bad.write_bytes(b"torn")
        assert main(["resume", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    @staticmethod
    def _resume_older(capsys, tmp_path, version):
        path = write_snapshot(
            tmp_path / snapshot_filename(1), {"meta": {}, "states": {}}
        )
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        assert main(["resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"older release (format version {version})" in err

    def test_snapshot_error_from_version_3_snapshot(self, capsys, tmp_path):
        self._resume_older(capsys, tmp_path, 3)

    def test_snapshot_error_from_version_4_snapshot(self, capsys, tmp_path):
        self._resume_older(capsys, tmp_path, 4)

    @pytest.mark.parametrize(
        "malformed, named",
        [
            pytest.param(_empty_meta, "meta", id="empty-meta"),
            pytest.param(_spec_with_unknown_key, "meta", id="unknown-spec-key"),
            pytest.param(
                _kernel_state_without_clock, "'kernel'", id="kernel-clock"
            ),
            pytest.param(_meta_as_string, "meta", id="string-meta"),
            pytest.param(_meta_with(ts="x"), "meta.ts", id="string-ts"),
            pytest.param(_meta_with(count="x"), "meta.count", id="string-count"),
            pytest.param(_meta_with(count=-1), "meta.count", id="negative-count"),
        ],
    )
    def test_snapshot_error_from_malformed_payload(
        self, capsys, tmp_path, malformed, named
    ):
        path = write_snapshot(tmp_path / snapshot_filename(1), malformed())
        assert main(["resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ecostor: error: snapshot " in err
        assert named in err

    def test_trace_error_from_corrupt_ecot(self, capsys, tmp_path):
        bad = tmp_path / "bad.ecot"
        bad.write_bytes(b"garbage bytes")
        assert main(["trace", "info", str(bad)]) == 2
        assert ".ecot" in capsys.readouterr().err

    def test_audit_error_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise AuditError("invariant violated at t=120.0\n  - detail")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        err = capsys.readouterr().err
        # Only the first line of a multi-line error is printed.
        assert "invariant violated at t=120.0" in err
        assert "detail" not in err

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_non_positive_shards_rejected_before_load(
        self, capsys, tmp_path, shards
    ):
        # The guard fires before the trace is opened, so the file's
        # content (or existence) never matters.
        status = main(
            ["trace", "info", str(tmp_path / "any.ecot"), "--shards", shards]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "--shards must be a positive array count" in err

    def test_placement_error_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise PlacementError("no feasible hot/cold split")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ecostor: error: ")
        assert "no feasible hot/cold split" in err

    def test_hot_set_too_small_maps_to_exit_two(self, capsys, monkeypatch):
        def fail(args):
            raise HotSetTooSmall("2 hot enclosures cannot absorb the load")

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        assert "hot enclosures" in capsys.readouterr().err

    def test_empty_message_falls_back_to_class_name(
        self, capsys, monkeypatch
    ):
        def fail(args):
            raise AuditError()

        monkeypatch.setattr(cli, "_cmd_run", fail)
        assert main(["run", "fileserver", "proposed"]) == 2
        assert "AuditError" in capsys.readouterr().err


class TestBugsStillPropagate:
    def test_unexpected_errors_are_not_swallowed(self, monkeypatch):
        def explode(args):
            raise RuntimeError("a genuine bug")

        monkeypatch.setattr(cli, "_cmd_run", explode)
        with pytest.raises(RuntimeError, match="a genuine bug"):
            main(["run", "fileserver", "proposed"])


class TestSnapshotCliRoundTrip:
    def test_run_resume_reports_match(self, capsys, tmp_path):
        assert main(
            [
                "run", "tpcc", "pdc",
                "--snapshot-every", "6000",
                "--snapshot-dir", str(tmp_path),
            ]
        ) == 0
        run_out = capsys.readouterr().out
        assert "snapshots:" in run_out
        snapshots = sorted(tmp_path.glob("snap-*.ecsn"))
        assert snapshots
        assert main(["resume", str(snapshots[0])]) == 0
        resume_out = capsys.readouterr().out
        # Every measured line of the resumed report equals the original
        # run's (the snapshot count line exists only on the run side).
        resumed_lines = resume_out.strip().splitlines()
        assert all(line in run_out for line in resumed_lines)
        assert "enclosure power" in resume_out
