"""Tests for D1 — dimensional consistency (D101–D104)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.analysis.dimensions import Dim, combine_div, combine_mul
from repro.devtools.analysis.framework import resolve_checkers, run_checkers
from repro.devtools.analysis.symbols import index_paths

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"

_PRELUDE = "from repro.units import Bytes, Joules, Rate, Seconds, Watts\n\n\n"


def _dimension_findings(tmp_path: Path, body: str) -> list:
    module = tmp_path / "probe.py"
    module.write_text(_PRELUDE + body, encoding="utf-8")
    checkers = resolve_checkers(["D101", "D102", "D103", "D104"])
    return run_checkers(index_paths([module]), checkers)


# ----------------------------------------------------------------------
# dimension algebra
# ----------------------------------------------------------------------
def test_multiplication_algebra() -> None:
    assert combine_mul(Dim.WATTS, Dim.SECONDS) is Dim.JOULES
    assert combine_mul(Dim.SECONDS, Dim.WATTS) is Dim.JOULES
    assert combine_mul(Dim.RATE, Dim.SECONDS) is Dim.BYTES
    assert combine_mul(Dim.SCALAR, Dim.JOULES) is Dim.JOULES
    assert combine_mul(Dim.JOULES, Dim.JOULES) is None
    assert combine_mul(None, Dim.SECONDS) is None


def test_division_algebra() -> None:
    assert combine_div(Dim.JOULES, Dim.SECONDS) is Dim.WATTS
    assert combine_div(Dim.JOULES, Dim.WATTS) is Dim.SECONDS
    assert combine_div(Dim.BYTES, Dim.SECONDS) is Dim.RATE
    assert combine_div(Dim.BYTES, Dim.RATE) is Dim.SECONDS
    assert combine_div(Dim.SECONDS, Dim.SECONDS) is Dim.SCALAR
    assert combine_div(Dim.SCALAR, Dim.SECONDS) is None


# ----------------------------------------------------------------------
# checks on synthesized modules
# ----------------------------------------------------------------------
def test_clean_power_arithmetic_is_silent(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def energy(power: Watts, elapsed: Seconds) -> Joules:\n"
        "    return power * elapsed\n"
        "\n"
        "\n"
        "def mean_power(total: Joules, elapsed: Seconds) -> Watts:\n"
        "    return total / elapsed\n"
        "\n"
        "\n"
        "def duration(size: Bytes, bandwidth: Rate) -> Seconds:\n"
        "    return size / bandwidth\n",
    )
    assert findings == []


def test_d101_flags_mixed_addition(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def bad(total: Joules, elapsed: Seconds) -> float:\n"
        "    return total + elapsed\n",
    )
    assert [f.check_id for f in findings] == ["D101"]
    assert "joules + seconds" in findings[0].message


def test_d101_propagates_through_assignment(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def bad(power: Watts, elapsed: Seconds) -> None:\n"
        "    energy = power * elapsed\n"
        "    wrong = energy - power\n",
    )
    assert [f.check_id for f in findings] == ["D101"]
    assert "joules - watts" in findings[0].message


def test_d102_flags_cross_dimension_compare(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def bad(power: Watts, budget: Joules) -> bool:\n"
        "    return power < budget\n",
    )
    assert [f.check_id for f in findings] == ["D102"]


def test_d103_flags_wrong_return_dimension(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def bad(elapsed: Seconds) -> Watts:\n"
        "    return elapsed\n",
    )
    assert [f.check_id for f in findings] == ["D103"]


def test_d104_flags_wrong_argument_dimension(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def wait(delay: Seconds) -> Seconds:\n"
        "    return delay\n"
        "\n"
        "\n"
        "def bad(energy: Joules) -> Seconds:\n"
        "    return wait(energy)\n",
    )
    assert [f.check_id for f in findings] == ["D104"]
    assert "parameter 'delay'" in findings[0].message


def test_unknown_dimensions_stay_silent(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def opaque(a, b):\n"
        "    return a + b\n"
        "\n"
        "\n"
        "def half_known(elapsed: Seconds, other) -> float:\n"
        "    return elapsed + other\n",
    )
    assert findings == []


def test_scalar_combines_freely(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def scaled(elapsed: Seconds) -> Seconds:\n"
        "    return elapsed * 2 + 0.5 * elapsed\n",
    )
    assert findings == []


def test_division_by_same_dimension_gives_scalar(tmp_path: Path) -> None:
    findings = _dimension_findings(
        tmp_path,
        "def utilisation(busy: Seconds, span: Seconds) -> float:\n"
        "    ratio = busy / span\n"
        "    return ratio + 1.0\n",
    )
    assert findings == []


def test_dimension_constants_from_units_module(tmp_path: Path) -> None:
    module = tmp_path / "probe.py"
    module.write_text(
        "from repro import units\n"
        "from repro.units import HOUR, Joules\n"
        "\n"
        "\n"
        "def bad(total: Joules) -> float:\n"
        "    return total + HOUR\n",
        encoding="utf-8",
    )
    checkers = resolve_checkers(["D101"])
    findings = run_checkers(index_paths([module]), checkers)
    assert [f.check_id for f in findings] == ["D101"]


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def test_d1_fixture_trips_each_check_once() -> None:
    checkers = resolve_checkers(["D101", "D102", "D103", "D104"])
    findings = run_checkers(
        index_paths([FIXTURES / "d1_dimensions.py"]), checkers
    )
    assert [f.check_id for f in findings] == ["D101", "D102", "D103", "D104"]
    contexts = [f.context.rsplit(".", 1)[-1] for f in findings]
    assert contexts == [
        "d101_mixed_sum",
        "d102_mixed_compare",
        "d103_wrong_return",
        "d104_wrong_argument",
    ]


def test_annotated_src_surfaces_are_dimension_clean() -> None:
    paths = [
        Path("src/repro/units.py"),
        Path("src/repro/storage/power.py"),
        Path("src/repro/storage/meter.py"),
        Path("src/repro/storage/enclosure.py"),
        Path("src/repro/monitoring/timeline.py"),
        Path("src/repro/engine/clock.py"),
        Path("src/repro/actions/records.py"),
    ]
    for path in paths:
        assert path.exists(), path
    checkers = resolve_checkers(["D101", "D102", "D103", "D104"])
    findings = run_checkers(index_paths(paths), checkers)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"dimension findings in annotated core:\n{rendered}"
