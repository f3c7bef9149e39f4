"""Tests for `ecostor check` and its pinned fixture matrix."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as ecostor_main
from repro.devtools.analysis.cli import analyze_paths
from repro.devtools.analysis.framework import CHECKERS

REPO_ROOT = Path(__file__).resolve().parents[3]
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

#: Fixture under tests/devtools/fixtures/ → every finding id it produces
#: with all checks enabled, in report order.
FIXTURE_CHECKS = [
    ("d1_dimensions.py", ["D101", "D102", "D103", "D104"]),
    ("d2_determinism.py", ["D202", "D203", "D204", "D204"]),
    ("d2_purity", ["R9", "R9", "R5", "D201", "R5", "D201", "R5"]),
    ("r1_float_equality.py", ["R1"]),
    ("r2_magic_number.py", ["R2"]),
    ("r3_exception_hierarchy.py", ["R3"]),
    ("r4_power_state.py", ["R4"]),
    ("r5_public_api.py", ["R5"]),
    ("r6_mutable_default.py", ["R6"]),
    ("r7_naked_except.py", ["R7"] * 3),
    ("r8_ad_hoc_time.py", ["R8"] * 3),
    ("r9_direct_mutation.py", ["R9"] * 9),
    ("r10_cross_array.py", ["R10"] * 8),
    ("r11_tier_mutation.py", ["R9"] * 6),
]


def ecostor(*argv: str) -> int:
    """Run ``ecostor check ARGV...`` in-process; returns the exit status."""
    return ecostor_main(["check", *argv])


@pytest.mark.parametrize("fixture,expected", FIXTURE_CHECKS)
def test_fixture_produces_expected_finding_ids(
    fixture: str, expected: list[str]
) -> None:
    report = analyze_paths([next(FIXTURES.rglob(fixture))])
    assert [f.check_id for f in report.findings] == expected


def test_every_fixture_is_pinned() -> None:
    on_disk = {
        path.name
        for path in [*FIXTURES.glob("*.py"), *(FIXTURES / "analysis").iterdir()]
        if path.name != "__pycache__"
    }
    assert on_disk == {name for name, _ in FIXTURE_CHECKS}


def test_every_check_id_has_a_fixture() -> None:
    """Adding a check without a fixture proving it fires must fail."""
    registered = {cid for checker in CHECKERS for cid in checker.check_ids}
    covered = {cid for _, expected in FIXTURE_CHECKS for cid in expected}
    missing = sorted(registered - covered)
    assert not missing, (
        "every check needs a tests/devtools/fixtures/ fixture proving it "
        f"fires; missing: {missing}"
    )


def test_src_tree_analyzes_clean_with_committed_baseline() -> None:
    report = analyze_paths(
        [REPO_ROOT / "src" / "repro"],
        baseline_path=REPO_ROOT / "analysis-baseline.json",
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"src/repro has unbaselined findings:\n{rendered}"
    assert report.files_indexed > 90
    assert report.baselined, "committed baseline entries should still match"


def test_same_named_modules_are_each_checked(tmp_path: Path) -> None:
    for package in ("a", "b"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "mod.py").write_text(
            "import random\n\nvalue = random.random()\n", encoding="utf-8"
        )
    # Overlapping roots still index each file once.
    report = analyze_paths([tmp_path / "a", tmp_path / "b", tmp_path])
    assert report.files_indexed == 2
    assert [(f.check_id, Path(f.path).parent.name) for f in report.findings] == [
        ("D202", "a"),
        ("D202", "b"),
    ]


def test_main_exit_codes(capsys: pytest.CaptureFixture[str]) -> None:
    assert ecostor(str(FIXTURES / "analysis" / "d2_purity"), "--no-baseline") == 1
    out = capsys.readouterr().out
    assert "D201[planner-purity]" in out
    assert "R9[storage-mutation]" in out
    assert ecostor(str(FIXTURES / "analysis" / "d2_purity"), "--select", "D203") == 0
    assert ecostor("--list-checks") == 0
    assert "D101" in capsys.readouterr().out
    assert ecostor(str(FIXTURES / "no_such_file.py")) == 2


@pytest.mark.parametrize(
    "selector, expected",
    [
        ("D202", ["D202"]),
        ("wall-clock", ["D203"]),
        ("d204", ["D204", "D204"]),
    ],
)
def test_select_keeps_only_the_selected_checks(
    selector: str, expected: list[str]
) -> None:
    # One DeterminismChecker emits D202-D204; selecting one id of it
    # must not report its siblings.
    target = FIXTURES / "analysis" / "d2_determinism.py"
    report = analyze_paths([target], select=[selector])
    assert [f.check_id for f in report.findings] == expected


def test_main_rejects_unknown_check(capsys: pytest.CaptureFixture[str]) -> None:
    assert ecostor("--select", "D999") == 2
    assert "unknown check" in capsys.readouterr().err


def test_main_json_format(capsys: pytest.CaptureFixture[str]) -> None:
    target = str(FIXTURES / "analysis" / "d1_dimensions.py")
    assert ecostor(target, "--format", "json", "--no-baseline") == 1
    document = json.loads(capsys.readouterr().out)
    assert [f["check_id"] for f in document["new_findings"]] == [
        "D101",
        "D102",
        "D103",
        "D104",
    ]


def test_write_baseline_then_clean(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "analysis" / "d2_determinism.py")
    assert ecostor(target, "--write-baseline", "--baseline", str(baseline)) == 0
    assert baseline.exists()
    assert ecostor(target, "--baseline", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "baselined finding(s) suppressed" in out


def test_ecostor_check_subcommand() -> None:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    listed = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--list-checks"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    ids = [line.split()[0] for line in listed.splitlines()]
    assert ids == [
        *(f"R{i}" for i in range(1, 11)),
        "D101", "D102", "D103", "D104",
        "D201", "D202", "D203", "D204",
    ]
    dirty = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--no-baseline",
         str(FIXTURES / "r6_mutable_default.py")],
        capture_output=True, text=True, env=env,
    )
    assert dirty.returncode == 1
    assert "R6[mutable-default]" in dirty.stdout
