"""Tests for D205 — unsnapshottable policy state."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.analysis.framework import resolve_checkers, run_checkers
from repro.devtools.analysis.symbols import index_paths

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"


def _findings(paths: list[Path]) -> list:
    return run_checkers(index_paths(paths), resolve_checkers(["D205"]))


def _fixture_findings() -> list:
    return _findings([FIXTURES / "d205_snapshots.py"])


def test_d205_flags_hidden_state() -> None:
    findings = _fixture_findings()
    contexts = {f.context for f in findings}
    assert "d205_snapshots.ForgetfulPolicy" in contexts
    (finding,) = [
        f for f in findings if f.context == "d205_snapshots.ForgetfulPolicy"
    ]
    assert finding.check_id == "D205"
    assert finding.check_name == "unsnapshottable-state"
    assert "self.last_checkpoint" in finding.message
    assert "self.windows" in finding.message
    assert "on_checkpoint()" in finding.message


def test_d205_flags_half_protocol() -> None:
    findings = _fixture_findings()
    (finding,) = [
        f
        for f in findings
        if f.context == "d205_snapshots.HalfProtocolPolicy.snapshot_state"
    ]
    assert "not restore_state()" in finding.message


def test_d205_passes_stateless_and_durable_policies() -> None:
    contexts = {f.context for f in _fixture_findings()}
    assert not any("StatelessPolicy" in c for c in contexts)
    assert not any("DurablePolicy" in c for c in contexts)
    assert len(_fixture_findings()) == 2


def test_d205_ignores_non_policy_classes(tmp_path: Path) -> None:
    module = tmp_path / "plain.py"
    module.write_text(
        "class Accumulator:\n"
        "    def bump(self) -> None:\n"
        "        self.total = 1\n",
        encoding="utf-8",
    )
    assert _findings([module]) == []


def test_d205_real_policies_are_snapshottable() -> None:
    findings = _findings([Path("src/repro")])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"unsnapshottable policy state:\n{rendered}"
