"""Round-trip tests for trace serialization."""

import io

import pytest

from repro.errors import TraceError
from repro.trace.reader import read_logical_trace, read_msr_trace
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.writer import write_logical_trace


def logical_records():
    return [
        LogicalIORecord(0.0, "a", 0, 4096, IOType.READ),
        LogicalIORecord(1.5, "b", 8192, 65536, IOType.WRITE, sequential=True),
        LogicalIORecord(2.25, "a", 4096, 4096, IOType.READ),
    ]


class TestLogicalRoundTrip:
    def test_roundtrip_in_memory(self):
        buffer = io.StringIO()
        count = write_logical_trace(logical_records(), buffer)
        assert count == 3
        buffer.seek(0)
        assert read_logical_trace(buffer) == logical_records()

    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_logical_trace(logical_records(), path)
        assert read_logical_trace(path) == logical_records()

    def test_sequential_flag_roundtrips(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_logical_trace(logical_records(), path)
        loaded = read_logical_trace(path)
        assert [r.sequential for r in loaded] == [False, True, False]


class TestErrors:
    def test_empty_file_rejected(self):
        with pytest.raises(TraceError):
            read_logical_trace(io.StringIO(""))

    def test_bad_header_rejected(self):
        with pytest.raises(TraceError):
            read_logical_trace(io.StringIO("a,b,c\n"))

    def test_malformed_row_rejected(self):
        buffer = io.StringIO(
            "timestamp,item_id,offset,size,io_type,sequential\n"
            "notanumber,a,0,1,R,0\n"
        )
        with pytest.raises(TraceError):
            read_logical_trace(buffer)


class TestMSRFormat:
    MSR = (
        "128166372003061629,usr,0,Read,7014609920,24576,41286\n"
        "128166372016382155,usr,0,Write,2517254144,4096,703880\n"
        "128166372026382155,proj,1,Read,1024,8192,1337\n"
    )

    def test_parses_records(self):
        records = read_msr_trace(io.StringIO(self.MSR))
        assert len(records) == 3
        assert records[0].item_id == "usr.0"
        assert records[2].item_id == "proj.1"

    def test_rebases_time_to_zero(self):
        records = read_msr_trace(io.StringIO(self.MSR))
        assert records[0].timestamp == 0.0
        # 13321 ms later in 100 ns ticks
        assert records[1].timestamp == pytest.approx(1.3320526)

    def test_io_types(self):
        records = read_msr_trace(io.StringIO(self.MSR))
        assert records[0].is_read
        assert not records[1].is_read

    def test_short_line_rejected(self):
        with pytest.raises(TraceError):
            read_msr_trace(io.StringIO("1,usr,0,Read\n"))

    def test_garbage_rejected(self):
        with pytest.raises(TraceError):
            read_msr_trace(io.StringIO("x,usr,0,Read,0,1,2\n"))

    def test_out_of_order_trace_rebases_against_minimum_tick(self):
        # MSR captures are often chunked per disk, not globally sorted:
        # here the *second* row is the earliest event.  Rebasing against
        # the first row used to hand it a negative timestamp.
        shuffled = (
            "128166372016382155,usr,0,Write,2517254144,4096,703880\n"
            "128166372003061629,usr,0,Read,7014609920,24576,41286\n"
            "128166372026382155,proj,1,Read,1024,8192,1337\n"
        )
        records = read_msr_trace(io.StringIO(shuffled))
        assert all(record.timestamp >= 0.0 for record in records)
        # Row order is preserved; the earliest event lands exactly at 0.
        assert records[1].timestamp == 0.0
        assert records[0].timestamp == pytest.approx(1.3320526)
        # Once sorted (as workload_from_records does) the relative
        # spacing matches the sorted-input parse exactly.
        sorted_now = sorted(record.timestamp for record in records)
        in_order = read_msr_trace(io.StringIO(self.MSR))
        assert sorted_now == [record.timestamp for record in in_order]

    def test_rebase_can_be_disabled(self):
        records = read_msr_trace(io.StringIO(self.MSR), rebase_time=False)
        assert records[0].timestamp == pytest.approx(
            128166372003061629 / 10_000_000
        )
