"""Tests for the extended CLI commands."""

import json

import pytest

from repro.cli import build_parser, main


class TestTraceCommands:
    def test_export_then_replay(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["export-trace", "tpcc", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "replay-trace",
                    str(path),
                    "no-power-saving",
                    "--enclosures",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "enclosure power" in out
        assert "inferred data items" in out

    def test_analyze_trace_agrees_on_csv_and_ecot(self, tmp_path, capsys):
        # The CSV reader hands build_profiles a record iterable, the
        # .ecot loader a columnar trace: both must classify alike.
        csv = tmp_path / "t.csv"
        ecot = tmp_path / "t.ecot"
        assert main(["export-trace", "tpcc", str(csv)]) == 0
        assert main(["trace", "pack", str(csv), str(ecot)]) == 0
        capsys.readouterr()
        assert main(["analyze-trace", str(csv)]) == 0
        from_csv = capsys.readouterr().out
        assert main(["analyze-trace", str(ecot)]) == 0
        assert capsys.readouterr().out == from_csv
        assert "records:      13931" in from_csv
        assert "P1:  21.3 %" in from_csv
        assert "P3:  78.7 %" in from_csv

    def test_replay_msr_format(self, tmp_path, capsys):
        msr = tmp_path / "trace.msr"
        msr.write_text(
            "128166372003061629,usr,0,Read,7014609920,24576,41286\n"
            "128166372016382155,usr,0,Write,2517254144,4096,703880\n"
        )
        assert (
            main(
                [
                    "replay-trace",
                    str(msr),
                    "no-power-saving",
                    "--enclosures",
                    "2",
                    "--msr",
                ]
            )
            == 0
        )
        assert "usr.0" not in capsys.readouterr().err


class TestStudyCommands:
    def test_ssd_study_parses(self):
        args = build_parser().parse_args(["ssd-study"])
        assert not args.full

    def test_scaling_study_parses(self):
        build_parser().parse_args(["scaling-study"])

    def test_intervals_command(self, capsys):
        assert main(["intervals", "tpcc", "proposed"]) == 0
        out = capsys.readouterr().out
        assert "interval length" in out
        assert "proposed" in out

    def test_intervals_requires_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["intervals", "tpcc"])


class TestTiersCommand:
    def test_tiers_run_reports_every_tier_and_writes_json(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "tiers.json"
        assert (
            main(["tiers", "fileserver", "--audit", "--out", str(out_path)])
            == 0
        )
        out = capsys.readouterr().out
        for tier in ("flash", "hdd", "archive"):
            assert tier in out
        assert "capacity cost" in out
        document = json.loads(out_path.read_text())
        assert document["format"] == 1
        assert document["workload"] == "fileserver"
        assert document["policy"] == "tiered-lifecycle"
        assert document["audit_checks"] > 0
        assert {row["tier"] for row in document["tiers"]} == {
            "flash",
            "hdd",
            "archive",
        }
        # The JSON is the artifact CI archives; its books must satisfy
        # the ledger identity like the in-process reports do.
        for row in document["tiers"]:
            assert (
                row["bytes_in"] - row["bytes_out"]
                == row["used_bytes"] + row["replica_bytes"]
            )

    def test_tiers_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tiers", "no-such-workload"])
