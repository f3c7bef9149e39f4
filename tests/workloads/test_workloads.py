"""Tests for the three workload generators."""

import pytest

from repro import units
from repro.config import DEFAULT_CONFIG
from repro.core.patterns import IOPattern, build_profiles, pattern_fractions
from repro.errors import WorkloadError
from repro.simulation import build_context
from repro.trace.stats import summarize
from repro.workloads import (
    build_dss_workload,
    build_fileserver_workload,
    build_oltp_workload,
)
from repro.workloads.dss import QUERY_TABLES
from repro.workloads.items import DataItemSpec, Workload

SHORT = 2600.0  # covers several monitoring periods, fast to generate


def pattern_mix(workload):
    sizes = {i.item_id: i.size_bytes for i in workload.items}
    locations = {i.item_id: "x" for i in workload.items}
    profiles = build_profiles(
        workload.records,
        0.0,
        workload.duration,
        DEFAULT_CONFIG.break_even_time,
        sizes,
        locations,
    )
    return pattern_fractions(profiles)


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder",
        [build_fileserver_workload, build_oltp_workload],
    )
    def test_same_seed_same_trace(self, builder):
        a = builder(seed=7, duration=SHORT)
        b = builder(seed=7, duration=SHORT)
        assert a.records == b.records

    def test_different_seed_different_trace(self):
        a = build_fileserver_workload(seed=1, duration=SHORT)
        b = build_fileserver_workload(seed=2, duration=SHORT)
        assert a.records != b.records


class TestFileServer:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_fileserver_workload(duration=SHORT)

    def test_layout(self, workload):
        assert workload.enclosure_count == 12
        assert len(workload.volumes) == 36
        assert len(workload.items) == 360

    def test_records_time_ordered(self, workload):
        times = [r.timestamp for r in workload.records]
        assert times == sorted(times)

    def test_read_mostly(self, workload):
        summary = summarize(workload.records)
        assert summary.read_ratio > 0.6

    def test_every_item_placed_on_valid_enclosure(self, workload):
        for item in workload.items:
            assert 0 <= item.enclosure_index < 12

    def test_pattern_mix_matches_paper_fig6(self):
        # Full duration required: burst items need the 6 h horizon.
        workload = build_fileserver_workload()
        mix = pattern_mix(workload)
        assert mix[IOPattern.P1] == pytest.approx(0.896, abs=0.03)
        assert mix[IOPattern.P3] == pytest.approx(0.099, abs=0.03)
        assert mix[IOPattern.P0] == 0.0
        assert mix[IOPattern.P2] < 0.02

    def test_installs_into_context(self, workload):
        context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
        workload.install(context)
        assert len(context.virtualization.item_ids()) == 360
        monitor = context.app_monitor
        assert all(
            monitor.volume_of(item) is not None for item in workload.item_ids()
        )

    def test_intensity_scales_rates(self):
        calm = build_fileserver_workload(duration=SHORT, intensity=1.0)
        busy = build_fileserver_workload(duration=SHORT, intensity=2.0)
        assert len(busy.records) > 1.4 * len(calm.records)

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ValueError):
            build_fileserver_workload(intensity=0.0)


class TestOLTP:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_oltp_workload(duration=SHORT)

    def test_layout(self, workload):
        assert workload.enclosure_count == 10
        assert len(workload.items) == 9 * 14 + 1

    def test_log_on_enclosure_zero(self, workload):
        log_items = [i for i in workload.items if i.kind == "log"]
        assert len(log_items) == 1
        assert log_items[0].enclosure_index == 0

    def test_log_is_sequential_write_stream(self, workload):
        log_records = [
            r for r in workload.records if r.item_id == "tpcc/log"
        ]
        assert log_records
        assert all(not r.is_read for r in log_records)
        assert all(r.sequential for r in log_records)

    def test_mixed_read_write(self, workload):
        summary = summarize(workload.records)
        assert 0.35 < summary.read_ratio < 0.65

    def test_pattern_mix_matches_paper_fig6(self):
        workload = build_oltp_workload()
        mix = pattern_mix(workload)
        assert mix[IOPattern.P3] == pytest.approx(0.762, abs=0.05)
        assert mix[IOPattern.P1] == pytest.approx(0.233, abs=0.05)
        assert mix[IOPattern.P0] == 0.0

    def test_reference_throughput_recorded(self, workload):
        assert workload.app_metrics["tpmC_without_power_saving"] == 1859.5


class TestDSS:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_dss_workload(
            duration=4000.0, queries=("Q1", "Q2", "Q9")
        )

    def test_layout(self, workload):
        assert workload.enclosure_count == 9
        table_items = [i for i in workload.items if i.kind == "table"]
        assert len(table_items) == 8 * 8  # 8 tables x 8 partitions

    def test_phases_cover_selected_queries(self, workload):
        names = [name for name, _, _ in workload.phases]
        assert names == ["Q1", "Q2", "Q9"]

    def test_phases_are_contiguous(self, workload):
        for (_, _, end), (_, start, _) in zip(
            workload.phases, workload.phases[1:]
        ):
            assert start == pytest.approx(end)

    def test_scans_are_sequential_reads(self, workload):
        scans = [
            r
            for r in workload.records
            if r.item_id.startswith("tpch/lineitem")
        ]
        assert scans
        assert all(r.sequential for r in scans)
        assert all(r.is_read for r in scans)

    def test_q1_touches_only_lineitem(self, workload):
        q1_end = workload.phases[0][2]
        touched = {
            r.item_id.split("/")[1]
            for r in workload.records
            if r.timestamp < q1_end and r.item_id.startswith("tpch/")
            and not r.item_id.startswith("tpch/work")
            and r.item_id != "tpch/log"
        }
        assert touched == {"lineitem"}

    def test_spill_queries_write_work_files(self, workload):
        work = [r for r in workload.records if "work/Q9" in r.item_id]
        assert work
        writes = [r for r in work if not r.is_read]
        assert len(writes) > len(work) * 0.5

    def test_pattern_mix_matches_paper_fig6(self):
        workload = build_dss_workload()
        mix = pattern_mix(workload)
        assert mix[IOPattern.P1] == pytest.approx(0.615, abs=0.05)
        assert mix[IOPattern.P2] == pytest.approx(0.385, abs=0.05)
        assert mix[IOPattern.P3] == 0.0
        assert mix[IOPattern.P0] == 0.0

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            build_dss_workload(queries=("Q99",))

    def test_query_tables_reference_known_tables(self):
        from repro.workloads.dss import TABLE_SIZES

        for tables in QUERY_TABLES.values():
            assert set(tables) <= set(TABLE_SIZES)

    def test_all_22_queries_defined(self):
        assert len(QUERY_TABLES) == 22


class TestWorkloadContainer:
    def test_rejects_item_outside_enclosures(self):
        with pytest.raises(WorkloadError):
            Workload(
                name="bad",
                duration=10.0,
                enclosure_count=2,
                items=[DataItemSpec("x", 1, 5)],
                records=[],
            )

    def test_rejects_unordered_records(self):
        from repro.trace.records import IOType, LogicalIORecord

        records = [
            LogicalIORecord(2.0, "x", 0, 1, IOType.READ),
            LogicalIORecord(1.0, "x", 0, 1, IOType.READ),
        ]
        with pytest.raises(WorkloadError):
            Workload(
                name="bad",
                duration=10.0,
                enclosure_count=1,
                items=[DataItemSpec("x", 1, 0)],
                records=records,
            )

    def test_install_requires_enough_enclosures(self):
        workload = build_oltp_workload(duration=SHORT)
        context = build_context(DEFAULT_CONFIG, 2)
        with pytest.raises(WorkloadError):
            workload.install(context)

    def test_item_spec_validation(self):
        with pytest.raises(WorkloadError):
            DataItemSpec("x", 0, 0)
        with pytest.raises(WorkloadError):
            DataItemSpec("x", 1, -1)
