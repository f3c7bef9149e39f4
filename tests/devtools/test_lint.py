"""Tests for the R1–R10 domain-convention checkers of `ecostor check`."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as ecostor_main
from repro.devtools.analysis.cli import analyze_paths
from repro.devtools.analysis.conventions import LEGAL_TRANSITION_NAMES
from repro.devtools.analysis.framework import (
    CHECKERS,
    AnalysisReport,
    resolve_checkers,
)
from repro.errors import ValidationError
from repro.storage.power import LEGAL_TRANSITIONS

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

RULE_IDS = [f"R{i}" for i in range(1, 11)]

FIXTURE_RULES = [
    ("r1_float_equality.py", "R1"),
    ("r2_magic_number.py", "R2"),
    ("r3_exception_hierarchy.py", "R3"),
    ("r4_power_state.py", "R4"),
    ("r5_public_api.py", "R5"),
    ("r6_mutable_default.py", "R6"),
    ("r7_naked_except.py", "R7"),
    ("r8_ad_hoc_time.py", "R8"),
    ("r9_direct_mutation.py", "R9"),
    ("r10_cross_array.py", "R10"),
    # R11 (tier mutation) merged into R9 over one mutator set.
    ("r11_tier_mutation.py", "R9"),
]


def check(path: Path, select: list[str] | None = None) -> AnalysisReport:
    """Run the R checks (or ``select``) over ``path`` without a baseline."""
    return analyze_paths([path], select=select or RULE_IDS)


@pytest.mark.parametrize("fixture,rule_id", FIXTURE_RULES)
def test_fixture_trips_exactly_its_rule(fixture: str, rule_id: str) -> None:
    path = FIXTURES / fixture
    findings = check(path).findings
    assert findings, f"{fixture} should trip {rule_id}"
    assert {f.check_id for f in findings} == {rule_id}
    rendered = findings[0].render()
    assert rendered.startswith(f"{path.as_posix()}:{findings[0].line}:")
    assert f"{rule_id}[" in rendered


def test_src_tree_lints_clean() -> None:
    """R1–R10 hold on src/repro outright: nothing is baselined for them."""
    report = check(REPO_ROOT / "src" / "repro")
    offenders = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"src/repro breaks a domain convention:\n{offenders}"
    assert report.files_indexed > 50


def test_registry_has_all_rules() -> None:
    registered = [cid for c in CHECKERS for cid in c.check_ids if cid[0] == "R"]
    assert registered == RULE_IDS
    for checker in CHECKERS:
        assert all(checker.check_ids.values())


def test_resolve_rules_accepts_ids_and_names() -> None:
    by_id = resolve_checkers(["R2"])
    assert by_id == resolve_checkers(["magic-number"])
    assert len(by_id) == 1
    assert resolve_checkers(["r3", "R3", "exception-hierarchy"]) == (
        resolve_checkers(["R3"])
    )
    assert resolve_checkers(["storage-mutation"]) == resolve_checkers(["R9"])
    for retired in ("R11", "R99", "direct-mutation", "tier-mutation"):
        with pytest.raises(ValidationError):
            resolve_checkers([retired])


def test_select_limits_rules_applied() -> None:
    path = FIXTURES / "r3_exception_hierarchy.py"
    assert check(path, ["R3"]).findings
    assert not check(path, ["R1", "R6"]).findings


def test_suppression_by_id_name_and_bare(tmp_path: Path) -> None:
    cases = {
        "by_id.py": 'raise ValueError("x")  # check: ignore[R3]\n',
        "by_name.py": 'raise ValueError("x")  # check: ignore[exception-hierarchy]\n',
        "listed.py": 'raise ValueError("x")  # check: ignore[R2, R3]\n',
        "bare.py": 'raise ValueError("x")  # check: ignore\n',
    }
    for name, body in cases.items():
        target = tmp_path / name
        target.write_text(body)
        assert not check(target).findings, f"{name} should be suppressed"
    wrong = tmp_path / "wrong_rule.py"
    wrong.write_text('raise ValueError("x")  # check: ignore[R2]\n')
    assert [f.check_id for f in check(wrong).findings] == ["R3"]


def test_parse_error_reported_as_pseudo_rule(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def incomplete(:\n")
    findings = check(broken, ["R1"]).findings
    assert [(f.check_id, f.line, f.col) for f in findings] == [("E0", 1, 15)]
    assert findings[0].check_name == "parse-error"


def test_every_rule_has_a_fixture() -> None:
    """Every R check fires on the ``r<N>_*.py`` fixture named after it."""
    fixtures = dict(FIXTURE_RULES)
    for rule_id in RULE_IDS:
        named = [f for f in fixtures if f.startswith(f"r{rule_id[1:]}_")]
        assert [fixtures[f] for f in named] == [rule_id], rule_id


def test_json_report_round_trips() -> None:
    # Only the r*.py rule fixtures: fixtures/analysis/ holds the D-check
    # fixtures, which deliberately contain R-check violations too.
    report = analyze_paths(sorted(FIXTURES.glob("r*.py")), select=RULE_IDS)
    payload = json.loads(report.render_json())
    assert payload["files_indexed"] == len(FIXTURE_RULES)
    assert {f["check_id"] for f in payload["new_findings"]} == set(RULE_IDS)
    for finding in payload["new_findings"]:
        assert finding["line"] >= 1
        assert finding["message"]


def test_report_rendering_counts() -> None:
    clean = AnalysisReport(findings=(), files_indexed=3)
    assert clean.clean
    assert clean.render_text() == "clean: 3 files analyzed"
    dirty = check(FIXTURES / "r1_float_equality.py")
    assert not dirty.clean
    assert dirty.render_text().endswith("1 new finding(s); 1 file analyzed")


def test_main_exit_codes(capsys: pytest.CaptureFixture[str]) -> None:
    assert ecostor_main(["check", str(FIXTURES / "r6_mutable_default.py")]) == 1
    assert "R6[mutable-default]" in capsys.readouterr().out
    units = REPO_ROOT / "src" / "repro" / "units.py"
    assert ecostor_main(["check", str(units), "--no-baseline"]) == 0
    assert ecostor_main(["check", "--select", "R11", str(FIXTURES)]) == 2
    assert ecostor_main(["check", "--list-checks"]) == 0
    assert "R4    power-state" in capsys.readouterr().out
    assert ecostor_main(["check", str(FIXTURES / "no_such_file.py")]) == 2


def test_r4_table_matches_state_machine() -> None:
    runtime = {(a.name, b.name) for a, b in LEGAL_TRANSITIONS}
    assert LEGAL_TRANSITION_NAMES == runtime
    assert ("OFF", "ACTIVE") not in LEGAL_TRANSITION_NAMES
