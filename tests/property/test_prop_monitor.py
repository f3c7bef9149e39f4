"""Property tests: the application monitor's books against a per-I/O reference.

The monitor keeps one response per served row of the trace it is
attached to and derives everything else at read time.  The reference
below keeps the books the way a monitor that copies every I/O would:
running totals added one I/O at a time from ``0.0``, a list of
``(timestamp, response, is_read)`` samples, and the window as the rows
served since the last ``begin_window``.  Totals must match bit for bit,
so the derived sums must fold left in row order like the running ones.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.application import ApplicationMonitor, ResponseStats
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord

ITEMS = ("a", "b", "c")

#: Responses spanning many magnitudes, so sums in another order round
#: differently.
RESPONSES = st.one_of(
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, 1e-9, 0.1, 0.2, 0.3, 1e16)),
)


class Reference:
    """Books kept per I/O, as running totals."""

    def __init__(self) -> None:
        self.io_count = 0
        self.read_count = 0
        self.response_sum = 0.0
        self.read_response_sum = 0.0
        self.max_response = 0.0
        self.samples: list[tuple[float, float, bool]] = []
        self.window: list[LogicalIORecord] = []
        self.zone_window: list[LogicalIORecord] = []

    def serve(self, record: LogicalIORecord, response: float) -> None:
        self.io_count += 1
        self.response_sum += response
        if response > self.max_response:
            self.max_response = response
        if record.is_read:
            self.read_count += 1
            self.read_response_sum += response
        self.samples.append((record.timestamp, response, record.is_read))
        self.window.append(record)
        self.zone_window.append(record)

    def stats(self) -> ResponseStats:
        return ResponseStats(
            io_count=self.io_count,
            read_count=self.read_count,
            response_sum=self.response_sum,
            read_response_sum=self.read_response_sum,
            max_response=self.max_response,
        )


@st.composite
def runs(draw):
    """A trace, the responses of its first rows, and where windows begin."""
    steps = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
                st.sampled_from(ITEMS),
                st.booleans(),
                RESPONSES,
                st.sampled_from((None, "array", "zone", "both")),
            ),
            max_size=40,
        )
    )
    unserved = draw(st.integers(0, 3))
    return steps, unserved


@given(runs())
@settings(max_examples=200, deadline=None)
def test_books_match_the_per_io_reference(run):
    steps, unserved = run
    records = []
    time = 0.0
    for gap, item, is_read, _, _ in steps:
        time += gap
        kind = IOType.READ if is_read else IOType.WRITE
        records.append(LogicalIORecord(time, item, 0, 4096, kind))
    # Rows past the served ones are in the trace but not in any book.
    tail = [LogicalIORecord(time + 1.0, "a", 0, 4096, IOType.READ)] * unserved
    trace = ColumnarTrace.from_records(records + tail)

    monitor = ApplicationMonitor()
    zone = ApplicationMonitor(monitor)
    monitor.attach(trace, 0)
    reference = Reference()
    for record, (_, _, _, response, begin) in zip(records, steps):
        # A window begins between rows, as at a checkpoint or a
        # triggered management run.
        if begin in ("array", "both"):
            monitor.begin_window(record.timestamp)
            reference.window = []
        if begin in ("zone", "both"):
            zone.begin_window(record.timestamp)
            reference.zone_window = []
        monitor.record(response)
        reference.serve(record, response)

        assert list(monitor.window_columns()) == reference.window
        assert list(zone.window_columns()) == reference.zone_window

    assert monitor.response_stats() == reference.stats()
    assert monitor.response_samples == reference.samples
    assert zone.response_stats() == reference.stats()

    # The books survive a snapshot: a monitor restored from it and
    # attached to the trace at the cursor reads the same.
    restored = ApplicationMonitor()
    restored_zone = ApplicationMonitor(restored)
    restored.restore_state(monitor.snapshot_state())
    restored_zone.restore_state(zone.snapshot_state())
    restored.attach(trace, len(records))
    assert restored.response_stats() == reference.stats()
    assert restored.response_samples == reference.samples
    assert list(restored.window_columns()) == reference.window
    assert list(restored_zone.window_columns()) == reference.zone_window
