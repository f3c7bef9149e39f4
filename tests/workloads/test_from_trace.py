"""Tests for repro.workloads.from_trace — trace ingestion."""

import io
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.errors import WorkloadError
from repro.experiments.runner import run_cell
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.writer import write_logical_trace
from repro.workloads.from_trace import (
    SIZE_QUANTUM,
    infer_item_sizes,
    workload_from_csv,
    workload_from_ecot,
    workload_from_msr,
    workload_from_records,
)
from repro.workloads.items import DataItemSpec


def rec(t, item="a", offset=0, size=4096):
    return LogicalIORecord(t, item, offset, size, IOType.READ)


class TestInferItemSizes:
    def test_size_covers_highest_touch(self):
        sizes = infer_item_sizes([rec(0.0, "a", offset=50 * units.MB)])
        assert sizes["a"] >= 50 * units.MB + 4096
        assert sizes["a"] % SIZE_QUANTUM == 0

    def test_multiple_items(self):
        sizes = infer_item_sizes([rec(0.0, "a"), rec(1.0, "b", offset=10**9)])
        assert sizes["b"] > sizes["a"]

    def test_slack_quantum(self):
        sizes = infer_item_sizes([rec(0.0, "a", offset=0, size=1)])
        assert sizes["a"] == SIZE_QUANTUM


class TestWorkloadFromRecords:
    def test_round_robin_placement(self):
        records = [rec(float(i), f"item-{i}") for i in range(6)]
        workload = workload_from_records(records, enclosure_count=3)
        indices = [item.enclosure_index for item in workload.items]
        assert sorted(indices) == [0, 0, 1, 1, 2, 2]

    def test_duration_extends_past_last_record(self):
        workload = workload_from_records([rec(100.0)], enclosure_count=2)
        assert workload.duration > 100.0

    def test_records_sorted(self):
        records = [rec(5.0, "a"), rec(1.0, "b")]
        workload = workload_from_records(records, enclosure_count=2)
        assert [r.timestamp for r in workload.records] == [1.0, 5.0]

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            workload_from_records([], enclosure_count=2)

    def test_bad_enclosure_count_rejected(self):
        with pytest.raises(WorkloadError):
            workload_from_records([rec(0.0)], enclosure_count=0)

    def test_replayable_end_to_end(self):
        records = [rec(float(i), f"item-{i % 3}", offset=i * 8192)
                   for i in range(30)]
        workload = workload_from_records(records, enclosure_count=2)
        result = run_cell(workload, NoPowerSavingPolicy(), DEFAULT_CONFIG)
        assert result.replay.io_count == 30


class TestCsvIngestion:
    def test_round_trip_from_csv(self, tmp_path):
        records = [rec(float(i), "x", offset=i * 4096) for i in range(5)]
        path = tmp_path / "trace.csv"
        write_logical_trace(records, path)
        workload = workload_from_csv(path, enclosure_count=2)
        assert workload.records == records
        assert workload.item_ids() == ["x"]

    def test_round_trip_preserves_pattern_classification(self, tmp_path):
        """Regression: the synthetic tail after the last record must stay
        below the break-even time, or every end-active item gains an
        artificial Long Interval and P3 items misclassify as P1."""
        from repro.core.patterns import IOPattern
        from repro.experiments.fig06_patterns import measure_pattern_mix
        from repro.experiments.testbed import build_workload
        from repro.trace.writer import write_logical_trace as write

        original = build_workload("tpcc", full=False)
        path = tmp_path / "tpcc.csv"
        write(original.records, path)
        round_tripped = workload_from_csv(path, enclosure_count=10)
        a = measure_pattern_mix(original)
        b = measure_pattern_mix(round_tripped)
        for pattern in IOPattern:
            assert a[pattern] == pytest.approx(b[pattern], abs=0.01)


class TestMsrIngestion:
    MSR = (
        "128166372003061629,usr,0,Read,7014609920,24576,41286\n"
        "128166372016382155,usr,0,Write,2517254144,4096,703880\n"
        "128166372026382155,proj,1,Read,1024,8192,1337\n"
    )

    def test_items_are_host_disk_pairs(self):
        workload = workload_from_msr(io.StringIO(self.MSR), enclosure_count=2)
        assert sorted(workload.item_ids()) == ["proj.1", "usr.0"]

    def test_sizes_cover_msr_offsets(self):
        workload = workload_from_msr(io.StringIO(self.MSR), enclosure_count=2)
        usr = next(i for i in workload.items if i.item_id == "usr.0")
        assert usr.size_bytes > 7014609920


def reference_catalog(records, enclosure_count):
    """The record path: sort the record objects, size items one record
    at a time, pack the sorted records."""
    ordered = sorted(records)
    highest = defaultdict(int)
    for record in ordered:
        highest[record.item_id] = max(
            highest[record.item_id], record.offset + record.size
        )
    items = [
        DataItemSpec(
            item_id=item,
            size_bytes=((highest[item] // SIZE_QUANTUM) + 1) * SIZE_QUANTUM,
            enclosure_index=index % enclosure_count,
            kind="traced",
        )
        for index, item in enumerate(sorted(highest))
    ]
    return items, ordered[-1].timestamp + 1.0, ColumnarTrace.from_records(ordered)


def ecot_image(trace):
    image = bytearray()
    trace.write_to(image.extend)
    return bytes(image)


@st.composite
def msr_shaped_records(draw):
    """Unsorted records every trace form can hold: microsecond times
    starting at 0, ``host.disk`` item ids, no sequential hint."""
    count = draw(st.integers(1, 40))
    micros = draw(st.lists(st.integers(0, 10**9), min_size=count, max_size=count))
    micros[draw(st.integers(0, count - 1))] = 0
    # A few distinct times so the sort must keep ties in input order.
    spread = draw(st.sampled_from([3, 1000, 10**9 + 1]))
    micros = [m % spread for m in micros]
    return [
        LogicalIORecord(
            timestamp=m / 1e6,
            item_id=draw(st.sampled_from(["usr.0", "proj.1", "src.2", "web.3"])),
            offset=draw(st.integers(0, 2**40)),
            size=draw(st.integers(1, 2**20)),
            io_type=draw(st.sampled_from(IOType)),
        )
        for m in micros
    ]


class TestTraceForms:
    @given(records=msr_shaped_records(), enclosure_count=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_csv_msr_and_ecot_forms_build_the_record_path_workload(
        self, tmp_path_factory, records, enclosure_count
    ):
        directory = tmp_path_factory.mktemp("forms")
        csv_path = directory / "trace.csv"
        write_logical_trace(records, csv_path)
        msr = io.StringIO(
            "".join(
                f"{round(r.timestamp * 1e7)},{r.item_id.replace('.', ',')},"
                f"{r.io_type.value},{r.offset},{r.size},0\n"
                for r in records
            )
        )
        ecot_path = directory / "trace.ecot"
        ColumnarTrace.from_records(records).save(ecot_path)

        items, duration, trace = reference_catalog(records, enclosure_count)
        for workload in (
            workload_from_records(records, enclosure_count),
            workload_from_csv(csv_path, enclosure_count),
            workload_from_msr(msr, enclosure_count),
            workload_from_ecot(ecot_path, enclosure_count),
        ):
            assert workload.items == items
            assert workload.duration == duration
            assert ecot_image(workload.records) == ecot_image(trace)
