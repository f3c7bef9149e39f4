"""Tests for the shared paper-vs-measured row builders."""

import pytest

from repro.experiments.comparisons import (
    POLICY_ORDER,
    determination_rows,
    migration_rows,
    power_rows,
    response_rows,
)
from repro.experiments.paper_values import (
    DETERMINATIONS,
    FIG6_PATTERN_MIX,
    MIGRATED_BYTES,
    POWER_SAVING_PERCENT,
    POWER_WATTS,
)
from repro.experiments.testbed import comparison


@pytest.fixture(scope="module")
def results():
    return comparison("tpcc", full=False)


class TestRowBuilders:
    def test_power_rows_cover_all_policies(self, results):
        rows = power_rows("tpcc", results)
        assert len(rows) == 4
        labels = " ".join(row.label for row in rows)
        for policy in POLICY_ORDER:
            assert policy in labels

    def test_power_rows_quote_paper_values(self, results):
        rows = power_rows("tpcc", results)
        baseline_row = next(r for r in rows if "no-power-saving" in r.label)
        assert baseline_row.paper == "2656.4 W"

    def test_saving_percentages_excludes_baseline(self, results):
        rows = power_rows("tpcc", results)
        savings = [
            row.label.split()[-1]
            for row in rows
            if row.note.startswith("saving:")
        ]
        assert savings == ["proposed", "pdc", "ddr"]

    def test_migration_rows(self, results):
        rows = migration_rows("tpcc", results)
        assert len(rows) == 3
        assert all("GB" in row.measured for row in rows)

    def test_determination_rows(self, results):
        rows = determination_rows("tpcc", results)
        by_policy = {row.label.split()[-1]: row for row in rows}
        assert by_policy["pdc"].paper == "3"
        assert by_policy["ddr"].paper == "90000"

    def test_response_rows_with_and_without_paper_values(self, results):
        with_paper = response_rows(
            "tpcc", results, {"proposed": 0.010}
        )
        proposed = next(r for r in with_paper if "proposed" in r.label)
        assert proposed.paper == "10.0 ms"
        without = response_rows("tpcc", results)
        assert all(row.paper == "-" for row in without)


class TestPaperValues:
    """The transcribed constants must stay self-consistent."""

    def test_pattern_mixes_sum_to_100(self):
        for name, mix in FIG6_PATTERN_MIX.items():
            assert sum(mix.values()) == pytest.approx(100.0, abs=1.0), name

    def test_savings_match_watts(self):
        for workload, watts in POWER_WATTS.items():
            base = watts["no-power-saving"]
            for policy, value in watts.items():
                if policy == "no-power-saving":
                    continue
                derived = 100.0 * (base - value) / base
                assert derived == pytest.approx(
                    POWER_SAVING_PERCENT[workload][policy], abs=0.6
                ), (workload, policy)

    def test_every_workload_has_all_tables(self):
        for table in (POWER_WATTS, MIGRATED_BYTES, DETERMINATIONS):
            assert set(table) == {"fileserver", "tpcc", "tpch"}
