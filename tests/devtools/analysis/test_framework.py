"""Tests for the analysis framework: registry, suppressions, reports."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.analysis.framework import (
    CHECKERS,
    Checker,
    Finding,
    register_checker,
    resolve_checkers,
    run_checkers,
)
from repro.devtools.analysis.symbols import index_paths
from repro.errors import ValidationError


def _finding(**overrides: object) -> Finding:
    values: dict = dict(
        check_id="D203",
        check_name="wall-clock",
        path="src/x.py",
        line=7,
        col=4,
        context="x.f",
        message="reads the wall clock",
    )
    values.update(overrides)
    return Finding(**values)


def test_finding_render_and_baseline_key() -> None:
    finding = _finding()
    assert finding.render() == (
        "src/x.py:7:4: D203[wall-clock] [x.f] reads the wall clock"
    )
    assert finding.baseline_key() == {
        "check": "D203",
        "path": "src/x.py",
        "context": "x.f",
        "message": "reads the wall clock",
    }


def test_registry_covers_all_documented_checks() -> None:
    ids = {cid for checker in CHECKERS for cid in checker.check_ids}
    assert {
        "D101",
        "D102",
        "D103",
        "D104",
        "D201",
        "D202",
        "D203",
        "D204",
    } <= ids


def test_register_checker_rejects_duplicate_ids() -> None:
    class Dupe(Checker):
        check_ids = {"D203": "wall-clock-again"}

    with pytest.raises(ValidationError, match="duplicate check ids"):
        register_checker(Dupe)
    assert all(type(c).__name__ != "Dupe" for c in CHECKERS)


def test_resolve_checkers_by_id_and_name() -> None:
    by_id = resolve_checkers(["D203"])
    by_name = resolve_checkers(["wall-clock"])
    assert by_id == by_name
    assert len(by_id) == 1
    with pytest.raises(ValidationError, match="unknown check"):
        resolve_checkers(["D999"])


def test_suppression_comment_silences_one_check(tmp_path: Path) -> None:
    module = tmp_path / "suppressed.py"
    module.write_text(
        "import time\n"
        "\n"
        "\n"
        "def stamp() -> float:\n"
        "    return time.time()  # check: ignore[D203]\n"
        "\n"
        "\n"
        "def stamp_again() -> float:\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    findings = run_checkers(index_paths([module]))
    assert [f.line for f in findings if f.check_id == "D203"] == [9]


def test_bare_suppression_silences_every_check(tmp_path: Path) -> None:
    module = tmp_path / "bare.py"
    module.write_text(
        "import random\n"
        "import time\n"
        "\n"
        "jitter = random.random() + time.time()  # check: ignore\n",
        encoding="utf-8",
    )
    assert run_checkers(index_paths([module])) == []


def test_findings_sorted_by_location(tmp_path: Path) -> None:
    module = tmp_path / "multi.py"
    module.write_text(
        "import time\n"
        "\n"
        "b = time.time()\n"
        "a = time.perf_counter()\n",
        encoding="utf-8",
    )
    findings = run_checkers(index_paths([module]))
    assert [f.line for f in findings] == [3, 4]


def test_report_json_round_trips(tmp_path: Path) -> None:
    from repro.devtools.analysis.cli import analyze_paths

    module = tmp_path / "clocky.py"
    module.write_text("import time\nnow = time.time()\n", encoding="utf-8")
    report = analyze_paths([module])
    document = json.loads(report.render_json())
    assert document["files_indexed"] == 1
    assert document["new_findings"][0]["check_id"] == "D203"
    assert not report.clean
    assert "1 new finding(s)" in report.render_text()


def test_parse_error_reported_not_raised(tmp_path: Path) -> None:
    from repro.devtools.analysis.cli import analyze_paths

    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    report = analyze_paths([bad])
    assert not report.clean
    assert "E0[parse-error]" in report.render_text()


@pytest.mark.parametrize(
    "content,line,col,message",
    [
        (b"x = 1\ndef oops(:\n", 2, 9, "file does not parse:"),
        (b"x = 1\ny = 'ab\x00c'\n", 2, 7, "file does not parse: null byte"),
        (b"x = 1\ny = 'caf\xff'\n", 2, 8, "file is not UTF-8: byte 0xff"),
    ],
    ids=["syntax-error", "null-byte", "not-utf8"],
)
def test_unreadable_file_is_one_located_e0_finding(
    tmp_path: Path, content: bytes, line: int, col: int, message: str
) -> None:
    bad = tmp_path / "bad.py"
    bad.write_bytes(content)
    findings = run_checkers(index_paths([bad]))
    assert [(f.check_id, f.line, f.col) for f in findings] == [("E0", line, col)]
    assert findings[0].message.startswith(message)
