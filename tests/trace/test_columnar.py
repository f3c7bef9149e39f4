"""Columnar trace round-trips and the `.ecot` binary format.

Three layers of guarantee, mirroring the tentpole's claims:

* build-from-records is lossless: ``ColumnarTrace.from_records(rs)``
  materializes back to exactly ``rs`` (order, flags, every field);
* the ``.ecot`` file format is lossless and versioned: save → load
  (mmap-ed or copied) reproduces the same columns, and corrupt or
  future-versioned files are refused, never guessed at;
* the two replay inputs are equivalent: replaying the columns produces
  a bit-identical :class:`~repro.trace.replay.ReplayResult` to replaying
  the record objects (which the replayer packs itself), on **every**
  standard workload (the golden test pins fileserver against a
  historical capture; this one pins the two inputs against each other
  everywhere).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import TraceError
from repro.experiments.runner import STANDARD_POLICIES
from repro.experiments.testbed import WORKLOAD_NAMES, build_workload
from repro.simulation import build_context
from repro.trace.columnar import (
    ECOT_MAGIC,
    FLAG_READ,
    FLAG_SEQUENTIAL,
    ColumnarTrace,
)
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer

#: Bytes of the fixed ``.ecot`` header; the item table follows it.
_HEADER_SIZE = 28


def fields(records: Iterable[LogicalIORecord]) -> list[tuple]:
    """Every field of each record, in order.

    Records compare by timestamp only, so a list comparison of the
    records themselves would not see a wrong item, offset or flag.
    """
    return [
        (r.timestamp, r.item_id, r.offset, r.size, r.io_type, r.sequential)
        for r in records
    ]


def _records() -> list[LogicalIORecord]:
    return [
        LogicalIORecord(
            timestamp=0.0,
            item_id="orders",
            offset=0,
            size=8192,
            io_type=IOType.READ,
        ),
        LogicalIORecord(
            timestamp=0.5,
            item_id="stock",
            offset=65536,
            size=4096,
            io_type=IOType.WRITE,
            sequential=True,
        ),
        LogicalIORecord(
            timestamp=2.25,
            item_id="orders",
            offset=16384,
            size=512,
            io_type=IOType.WRITE,
        ),
    ]


class TestBuildRoundTrip:
    def test_records_round_trip_exactly(self):
        records = _records()
        trace = ColumnarTrace.from_records(records)
        assert fields(trace) == fields(records)

    def test_interns_items_in_first_appearance_order(self):
        trace = ColumnarTrace.from_records(_records())
        assert trace.items == ("orders", "stock")
        assert list(trace.item_index) == [0, 1, 0]

    def test_flags_encode_io_type_and_sequential(self):
        trace = ColumnarTrace.from_records(_records())
        assert trace.flags[0] == FLAG_READ
        assert trace.flags[1] == FLAG_SEQUENTIAL
        assert trace.flags[2] == 0

    def test_sequence_protocol(self):
        records = _records()
        trace = ColumnarTrace.from_records(records)
        assert len(trace) == 3
        assert trace[1] == records[1]
        assert trace[-1] == records[-1]
        assert list(trace[1:]) == records[1:]
        with pytest.raises(IndexError):
            trace[3]

    def test_empty_trace(self):
        trace = ColumnarTrace.from_records([])
        assert len(trace) == 0
        assert fields(trace) == []


class TestEcotFormat:
    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "copy"])
    def test_save_load_round_trip(self, tmp_path, use_mmap):
        records = _records()
        built = ColumnarTrace.from_records(records)
        path = tmp_path / "trace.ecot"
        assert built.save(path) == len(records)
        loaded = ColumnarTrace.load(path, use_mmap=use_mmap)
        assert loaded == built
        assert fields(loaded) == fields(records)

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.ecot"
        ColumnarTrace.from_records([]).save(path)
        assert fields(ColumnarTrace.load(path)) == []

    def test_single_record_round_trips(self, tmp_path):
        records = _records()[:1]
        path = tmp_path / "one.ecot"
        ColumnarTrace.from_records(records).save(path)
        assert fields(ColumnarTrace.load(path)) == fields(records)

    def test_non_ascii_item_ids_round_trip(self, tmp_path):
        records = [
            LogicalIORecord(
                timestamp=float(i),
                item_id=item_id,
                offset=0,
                size=4096,
                io_type=IOType.READ,
            )
            for i, item_id in enumerate(["データ/項目", "naïve id", "π"])
        ]
        path = tmp_path / "unicode.ecot"
        ColumnarTrace.from_records(records).save(path)
        loaded = ColumnarTrace.load(path)
        assert loaded.items == ("データ/項目", "naïve id", "π")
        assert fields(loaded) == fields(records)

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "bogus.ecot"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(TraceError, match="not an .ecot"):
            ColumnarTrace.load(path)

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "future.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="version 99"):
            ColumnarTrace.load(path)

    def test_truncated_columns_refused(self, tmp_path):
        path = tmp_path / "cut.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TraceError, match="truncated"):
            ColumnarTrace.load(path)

    @pytest.mark.parametrize(
        "column, bad",
        [("timestamps", -1.0), ("offsets", -4096), ("sizes", 0)],
    )
    def test_out_of_range_column_values_refused(self, tmp_path, column, bad):
        """The bounds ``LogicalIORecord`` enforces hold on load too."""
        records = [
            LogicalIORecord(float(i), f"item-{i % 5}", 0, 4096, IOType.READ)
            for i in range(50)
        ]
        trace = ColumnarTrace.from_records(records)
        values = getattr(trace, column)
        values[len(values) // 2] = bad
        path = tmp_path / "bad.ecot"
        trace.save(path)
        with pytest.raises(TraceError, match=column):
            ColumnarTrace.load(path)

    def test_invalid_utf8_item_id_refused(self, tmp_path):
        path = tmp_path / "latin.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        # Header, then the first item id's 2-byte length, then its bytes.
        raw[_HEADER_SIZE + 2] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="not valid UTF-8"):
            ColumnarTrace.load(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timestamp_refused(self, tmp_path, bad):
        trace = ColumnarTrace.from_records(_records())
        trace.timestamps[1] = bad
        path = tmp_path / "nan.ecot"
        trace.save(path)
        with pytest.raises(TraceError, match="non-finite"):
            ColumnarTrace.load(path)

    @pytest.mark.parametrize(
        "span", [8, 32, 33], ids=["into-header", "into-items", "unaligned"]
    )
    def test_misplaced_header_span_refused(self, tmp_path, span):
        path = tmp_path / "span.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        assert int.from_bytes(raw[20:28], "little") == 48
        raw[20:28] = span.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="header span"):
            ColumnarTrace.load(path)

    def test_undefined_flag_bits_refused(self, tmp_path):
        path = tmp_path / "flags.ecot"
        ColumnarTrace.from_records(_records()).save(path)
        raw = bytearray(path.read_bytes())
        raw[-1] |= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="flags"):
            ColumnarTrace.load(path)

    def test_write_to_feeds_the_saved_image(self, tmp_path):
        trace = ColumnarTrace.from_records(_records())
        path = tmp_path / "image.ecot"
        trace.save(path)
        chunks: list[bytes] = []
        trace.write_to(lambda chunk: chunks.append(bytes(chunk)))
        assert b"".join(chunks) == path.read_bytes()

    def test_magic_constant_is_first_four_bytes(self, tmp_path):
        path = tmp_path / "magic.ecot"
        ColumnarTrace.from_records([]).save(path)
        assert path.read_bytes()[:4] == ECOT_MAGIC


class TestPumpEquivalence:
    """Columnar input == record-object input, bit for bit, everywhere."""

    @pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("policy_name", ["no-power-saving", "proposed"])
    def test_columnar_replay_matches_object_replay(
        self, workload_name, policy_name
    ):
        results = []
        for columnar in (False, True):
            workload = build_workload(workload_name, full=False)
            context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
            workload.install(context)
            policy = STANDARD_POLICIES[policy_name]()
            records = (
                workload.columnar() if columnar else list(workload.records)
            )
            result = TraceReplayer(context, policy).run(
                records, duration=workload.duration
            )
            results.append(json.dumps(asdict(result), sort_keys=True))
        assert results[0] == results[1], (
            f"{workload_name}/{policy_name}: replaying the columnar trace "
            "diverged from replaying the record objects"
        )
