"""Integration tests: full workload × policy runs on shortened traces.

These assert the *relationships* the paper's evaluation hinges on, at
smoke scale; the full-scale shape assertions live in benchmarks/.
"""

import pytest

from repro.analysis.metrics import power_saving_percent
from repro.experiments.testbed import comparison

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def fileserver_results():
    return comparison("fileserver", full=False)


@pytest.fixture(scope="module")
def tpcc_results():
    return comparison("tpcc", full=False)


@pytest.fixture(scope="module")
def tpch_results():
    return comparison("tpch", full=False)


def saving(results, policy):
    return power_saving_percent(
        results["no-power-saving"].enclosure_watts,
        results[policy].enclosure_watts,
    )


class TestFileServer:
    def test_proposed_saves_power(self, fileserver_results):
        assert saving(fileserver_results, "proposed") > 5.0

    def test_proposed_beats_baseline_methods(self, fileserver_results):
        assert saving(fileserver_results, "proposed") > saving(
            fileserver_results, "pdc"
        )
        assert saving(fileserver_results, "proposed") > saving(
            fileserver_results, "ddr"
        )

    def test_ddr_saves_nearly_nothing(self, fileserver_results):
        assert abs(saving(fileserver_results, "ddr")) < 2.0

    def test_pdc_migrates_far_more_than_proposed(self, fileserver_results):
        assert (
            fileserver_results["pdc"].migrated_bytes
            > 3 * fileserver_results["proposed"].migrated_bytes
        )

    def test_ddr_migrates_least(self, fileserver_results):
        assert (
            fileserver_results["ddr"].migrated_bytes
            < fileserver_results["proposed"].migrated_bytes
        )

    def test_determination_ordering(self, fileserver_results):
        # DDR's sub-second period dwarfs everything (paper: ~91 000).
        assert (
            fileserver_results["ddr"].determinations
            > 100 * fileserver_results["proposed"].determinations
        )

    def test_proposed_creates_long_intervals(self, fileserver_results):
        assert (
            fileserver_results["proposed"].interval_curve.total_length
            > fileserver_results["ddr"].interval_curve.total_length
        )

    def test_preload_raises_cache_hits(self, fileserver_results):
        assert (
            fileserver_results["proposed"].replay.cache_hit_ratio
            > fileserver_results["no-power-saving"].replay.cache_hit_ratio
        )


class TestTpcc:
    def test_proposed_saves_power(self, tpcc_results):
        assert saving(tpcc_results, "proposed") > 5.0

    def test_ddr_cannot_save(self, tpcc_results):
        # Paper: "DDR could not reduce the power consumption" — every
        # enclosure's IOPS stays above LowTH.
        assert abs(saving(tpcc_results, "ddr")) < 1.0
        assert tpcc_results["ddr"].replay.spin_down_count == 0

    def test_proposed_beats_pdc(self, tpcc_results):
        assert saving(tpcc_results, "proposed") > saving(tpcc_results, "pdc")

    def test_throughput_loss_is_bounded(self, tpcc_results):
        base = tpcc_results["no-power-saving"].mean_read_response
        ours = tpcc_results["proposed"].mean_read_response
        # Paper: -8.5 % tpmC; allow up to ~35 % at smoke scale.
        assert ours / base < 1.55

    def test_ddr_has_no_long_intervals(self, tpcc_results):
        # Paper Fig 18: no DDR intervals above the break-even time.
        assert tpcc_results["ddr"].interval_curve.total_length == 0.0


class TestTpch:
    def test_everyone_saves_a_lot(self, tpch_results):
        # Paper: all methods save > 50 % on DSS.
        for policy in ("proposed", "ddr"):
            assert saving(tpch_results, policy) > 30.0

    def test_proposed_is_best_or_close(self, tpch_results):
        best = max(
            saving(tpch_results, p) for p in ("proposed", "pdc", "ddr")
        )
        assert saving(tpch_results, "proposed") >= best - 3.0

    def test_pdc_saves_least(self, tpch_results):
        assert saving(tpch_results, "pdc") < saving(tpch_results, "proposed")

    def test_query_responses_available(self, tpch_results):
        for policy, result in tpch_results.items():
            names = {w.name for w in result.window_responses}
            assert {"Q1", "Q2"} <= names

    def test_response_degrades_for_all_saving_methods(self, tpch_results):
        base = tpch_results["no-power-saving"].mean_response
        for policy in ("proposed", "pdc", "ddr"):
            assert tpch_results[policy].mean_response > base

    def test_proposed_response_beats_ddr(self, tpch_results):
        assert (
            tpch_results["proposed"].mean_response
            <= tpch_results["ddr"].mean_response * 1.05
        )


class TestCrossWorkload:
    def test_energy_conservation(self, tpcc_results):
        # Average power x duration equals accumulated joules.
        for result in tpcc_results.values():
            power = result.replay.power
            assert power.enclosure_joules == pytest.approx(
                power.enclosure_watts * power.duration_seconds, rel=1e-9
            )

    def test_all_ios_replayed(self, tpcc_results):
        counts = {r.replay.io_count for r in tpcc_results.values()}
        assert len(counts) == 1  # same trace for every policy
