"""Tests for D2 — planner purity (D201) and determinism (D202–D204)."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.analysis.framework import resolve_checkers, run_checkers
from repro.devtools.analysis.symbols import index_paths

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"


def _findings(paths: list[Path], select: list[str]) -> list:
    return run_checkers(index_paths(paths), resolve_checkers(select))


# ----------------------------------------------------------------------
# D201 — planner purity
# ----------------------------------------------------------------------
def test_d201_flags_transitive_mutation_with_chain() -> None:
    findings = _findings([FIXTURES / "d2_purity"], ["D201"])
    assert [f.check_id for f in findings] == ["D201", "D201"]
    finding = findings[0]
    assert finding.context == "d2_purity.policy.LeakyPolicy.on_checkpoint"
    assert "flush_write_delay" in finding.message
    assert "on_checkpoint -> _tidy -> drain_everything" in finding.message


def test_d201_covers_the_tier_mutators() -> None:
    findings = _findings([FIXTURES / "d2_purity"], ["D201"])
    finding = findings[1]
    assert finding.context == "d2_purity.policy.PromotingPolicy.on_checkpoint"
    assert "'promote_item'" in finding.message
    assert "on_checkpoint -> warm_up -> promote_item()" in finding.message


def test_d201_executor_gateway_is_sanctioned() -> None:
    findings = _findings([FIXTURES / "d2_purity"], ["D201"])
    assert all("PurePolicy" not in f.context for f in findings)


def test_d201_recursion_terminates(tmp_path: Path) -> None:
    module = tmp_path / "recursive.py"
    module.write_text(
        "class PowerPolicy:\n"
        "    pass\n"
        "\n"
        "\n"
        "class Looper(PowerPolicy):\n"
        "    def on_checkpoint(self, now: float) -> None:\n"
        "        self._spin(now)\n"
        "\n"
        "    def _spin(self, now: float) -> None:\n"
        "        self._spin(now)\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D201"]) == []


def test_d201_real_policies_are_pure() -> None:
    findings = _findings([Path("src/repro")], ["D201"])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"impure policy paths:\n{rendered}"


# ----------------------------------------------------------------------
# D202 / D203 / D204
# ----------------------------------------------------------------------
def test_d2_determinism_fixture_findings() -> None:
    findings = _findings([FIXTURES / "d2_determinism.py"], ["D202", "D203", "D204"])
    assert [f.check_id for f in findings] == ["D202", "D203", "D204", "D204"]


def test_d202_seeded_random_instance_is_fine(tmp_path: Path) -> None:
    module = tmp_path / "seeded.py"
    module.write_text(
        "import random\n"
        "\n"
        "rng = random.Random(11)\n"
        "value = rng.uniform(0.0, 1.0)\n"
        "random.seed(11)\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D202"]) == []


def test_d202_from_import_alias_detected(tmp_path: Path) -> None:
    module = tmp_path / "aliased.py"
    module.write_text(
        "from random import shuffle\n"
        "\n"
        "deck = [1, 2, 3]\n"
        "shuffle(deck)\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D202"])
    assert [f.check_id for f in findings] == ["D202"]


def test_d203_datetime_now_detected(tmp_path: Path) -> None:
    module = tmp_path / "stamped.py"
    module.write_text(
        "import datetime\n"
        "\n"
        "stamp = datetime.datetime.now()\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D203"])
    assert [f.check_id for f in findings] == ["D203"]


def test_d204_sorted_set_is_fine(tmp_path: Path) -> None:
    module = tmp_path / "ordered.py"
    module.write_text(
        "names = {'b', 'a'}\n"
        "ordered = sorted(names)\n"
        "listed = list(sorted(names))\n"
        "for name in sorted(names):\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert _findings([module], ["D204"]) == []


def test_d204_set_operations_detected(tmp_path: Path) -> None:
    module = tmp_path / "setops.py"
    module.write_text(
        "current = {'a', 'b'}\n"
        "wanted = {'b', 'c'}\n"
        "for stale in current - wanted:\n"
        "    pass\n",
        encoding="utf-8",
    )
    findings = _findings([module], ["D204"])
    assert [f.check_id for f in findings] == ["D204"]
