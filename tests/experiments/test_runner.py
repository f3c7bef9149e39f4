"""Tests for the experiment runner and testbed catalog."""

import pytest

from repro.baselines.nopower import NoPowerSavingPolicy
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments.parallel import WorkloadSpec, standard_cells
from repro.experiments.runner import STANDARD_POLICIES, run_cell
from repro.experiments.testbed import (
    SMOKE_QUERIES,
    WORKLOAD_NAMES,
    build_workload,
    comparison,
)
from repro.workloads import build_oltp_workload


@pytest.fixture(scope="module")
def tiny_workload():
    return build_oltp_workload(duration=1300.0)


class TestRunCell:
    def test_produces_complete_result(self, tiny_workload):
        result = run_cell(tiny_workload, NoPowerSavingPolicy())
        assert result.workload_name == "tpcc"
        assert result.policy_name == "no-power-saving"
        assert result.replay.io_count == len(tiny_workload.records)
        assert result.enclosure_watts > 0
        assert result.controller_watts > 0

    def test_interval_curve_attached(self, tiny_workload):
        result = run_cell(tiny_workload, EnergyEfficientPolicy())
        assert result.interval_curve is not None

    def test_fresh_context_per_cell(self, tiny_workload):
        first = run_cell(tiny_workload, NoPowerSavingPolicy())
        second = run_cell(tiny_workload, NoPowerSavingPolicy())
        assert first.enclosure_watts == pytest.approx(second.enclosure_watts)


class TestRunComparison:
    def test_all_four_policies(self):
        results = comparison("tpcc", full=False)
        assert set(results) == set(STANDARD_POLICIES)

    def test_custom_policy_subset(self):
        spec = WorkloadSpec(name="tpcc", full=False)
        cells = standard_cells(spec, policies=["no-power-saving"])
        assert [cell.policy.name for cell in cells] == ["no-power-saving"]


class TestWorkloadCatalog:
    def test_names(self):
        assert WORKLOAD_NAMES == ("fileserver", "tpcc", "tpch")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_smoke_workloads_build(self, name):
        workload = build_workload(name, full=False)
        assert workload.io_count > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_workload("mysql")

    def test_memoization(self):
        a = build_workload("tpcc", full=False)
        b = build_workload("tpcc", full=False)
        assert a is b

    def test_smoke_queries_subset_of_spec(self):
        from repro.workloads.dss import QUERY_TABLES

        assert set(SMOKE_QUERIES) <= set(QUERY_TABLES)

    def test_comparison_memoized(self):
        first = comparison("tpcc", full=False)
        second = comparison("tpcc", full=False)
        assert first is second
