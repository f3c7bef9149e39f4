"""Property tests: the columnar ``merge_streams`` equals the record merge.

:func:`repro.workloads.base.merge_streams` gathers the merged trace's
columns in one numpy pass.  The reference below is the merge it
replaced: build one :class:`LogicalIORecord` per event in stable time
order, then pack the records with :meth:`ColumnarTrace.from_records`.
The two must agree on every column and on the order of the interned
item table, and must refuse the same bad records with the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord
from repro.workloads.base import EventStream, merge_streams


def reference_merge(streams: list[EventStream]) -> ColumnarTrace:
    """The record-by-record merge, packed into columns."""
    streams = [s for s in streams if len(s.times)]
    if not streams:
        return ColumnarTrace.from_records([])
    times = np.concatenate([s.times for s in streams])
    order = np.argsort(times, kind="stable")
    item_ids = np.concatenate(
        [np.full(len(s.times), i) for i, s in enumerate(streams)]
    )
    is_read = np.concatenate([s.is_read for s in streams])
    offsets = np.concatenate([s.offsets for s in streams])
    sizes = np.concatenate([s.sizes for s in streams])
    sequential = np.array([s.sequential for s in streams])
    names = [s.item_id for s in streams]
    records = []
    for index in order:
        stream_index = int(item_ids[index])
        records.append(
            LogicalIORecord(
                timestamp=float(times[index]),
                item_id=names[stream_index],
                offset=int(offsets[index]),
                size=int(sizes[index]),
                io_type=IOType.READ if is_read[index] else IOType.WRITE,
                sequential=bool(sequential[stream_index]),
            )
        )
    return ColumnarTrace.from_records(records)


def assert_same_trace(got: ColumnarTrace, want: ColumnarTrace) -> None:
    assert got.items == want.items
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert list(got.item_index) == list(want.item_index)
    assert list(got.offsets) == list(want.offsets)
    assert list(got.sizes) == list(want.sizes)
    assert bytes(got.flags) == bytes(want.flags)


@st.composite
def streams(draw, bad: bool = False):
    """A list of event streams over a small shared id alphabet.

    Timestamps come from a coarse grid (so ties across streams are
    common) and are either sequential (sorted) or in random order.
    With ``bad``, one event of one stream gets a value a record refuses.
    """
    count = draw(st.integers(min_value=1 if bad else 0, max_value=6))
    result = []
    for _ in range(count):
        n = draw(st.integers(min_value=1 if bad else 0, max_value=15))
        ticks = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        times = np.array(ticks, dtype=np.float64) * 0.5
        if draw(st.booleans()):
            times = np.sort(times)
        result.append(
            EventStream(
                item_id=draw(st.sampled_from(["a", "b", "c", "é"])),
                times=times,
                is_read=np.array(
                    draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool,
                ),
                offsets=np.array(
                    draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
                    dtype=np.int64,
                ),
                sizes=np.array(
                    draw(st.lists(st.integers(1, 2**20), min_size=n, max_size=n)),
                    dtype=np.int64,
                ),
                sequential=draw(st.booleans()),
            )
        )
    if bad:
        stream = draw(st.sampled_from(result))
        at = draw(st.integers(0, len(stream.times) - 1))
        column, value = draw(
            st.sampled_from(
                [("times", -1.5), ("offsets", -4096), ("sizes", 0), ("sizes", -8)]
            )
        )
        getattr(stream, column)[at] = value
    return result


@given(streams())
@settings(max_examples=300, deadline=None)
def test_columnar_merge_equals_record_merge(stream_list):
    assert_same_trace(merge_streams(stream_list), reference_merge(stream_list))


@given(streams(bad=True))
@settings(max_examples=200, deadline=None)
def test_columnar_merge_refuses_what_the_record_merge_refuses(stream_list):
    with pytest.raises(ValidationError) as expected:
        reference_merge(stream_list)
    with pytest.raises(ValidationError) as got:
        merge_streams(stream_list)
    assert str(got.value) == str(expected.value)


def _stream(item_id, times, sequential=False):
    n = len(times)
    return EventStream(
        item_id=item_id,
        times=np.array(times, dtype=np.float64),
        is_read=np.arange(n) % 2 == 0,
        offsets=np.arange(n, dtype=np.int64) * 4096,
        sizes=np.full(n, 4096, dtype=np.int64),
        sequential=sequential,
    )


def test_empty_streams_merge_to_an_empty_trace():
    empty = _stream("x", [])
    assert len(merge_streams([])) == 0
    assert_same_trace(merge_streams([empty, empty]), reference_merge([]))


def test_two_streams_for_one_item_share_one_table_entry():
    merged = merge_streams(
        [_stream("late", [5.0]), _stream("a", [1.0, 3.0]), _stream("a", [2.0])]
    )
    assert merged.items == ("a", "late")
    assert list(merged.item_index) == [0, 0, 0, 1]
    assert list(merged.timestamps) == [1.0, 2.0, 3.0, 5.0]


def test_equal_timestamps_keep_stream_order():
    first = _stream("first", [1.0, 1.0], sequential=True)
    second = _stream("second", [1.0])
    merged = merge_streams([second, first])
    assert [merged.items[i] for i in merged.item_index] == [
        "second",
        "first",
        "first",
    ]
    assert_same_trace(merged, reference_merge([second, first]))


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("times", -1.0, "timestamp"),
        ("offsets", -1, "offset"),
        ("sizes", 0, "size"),
    ],
)
def test_refused_record_raises_its_validation_error(column, value, message):
    stream = _stream("x", [0.0, 1.0, 2.0])
    getattr(stream, column)[1] = value
    with pytest.raises(ValidationError, match=message):
        merge_streams([stream])
