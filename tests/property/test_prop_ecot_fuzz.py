"""Property tests: a damaged ``.ecot`` file never loads as bad columns.

A valid trace is saved, its bytes are truncated, flipped and spliced,
and the result is loaded (mapped and copied).  Every load must either
raise :class:`~repro.errors.TraceError` or return columns inside the
bounds the loader promises — the replay reads the columns directly, so
anything else (a stray ``UnicodeDecodeError``, a NaN timestamp, an item
index past the table) would surface deep inside a run instead.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.columnar import FLAG_READ, FLAG_SEQUENTIAL, ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord

item_ids = st.text(min_size=1, max_size=8)


@st.composite
def traces(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    times = sorted(
        draw(
            st.lists(
                st.floats(0.0, 1e6, allow_nan=False), min_size=count, max_size=count
            )
        )
    )
    return ColumnarTrace.from_records(
        LogicalIORecord(
            timestamp=ts,
            item_id=draw(item_ids),
            offset=draw(st.integers(0, 2**40)),
            size=draw(st.integers(1, 2**30)),
            io_type=draw(st.sampled_from(IOType)),
            sequential=draw(st.booleans()),
        )
        for ts in times
    )


#: Byte positions: biased toward the header and item table, where one
#: flipped byte changes how everything after it is read.
positions = st.one_of(st.integers(0, 63), st.integers(0, 10**4))

mutations = st.one_of(
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("flip"), positions, st.integers(1, 255)),
    st.tuples(st.just("insert"), positions, st.binary(min_size=1, max_size=16)),
)


def _mutate(image: bytes, steps) -> bytes:
    data = bytearray(image)
    for step in steps:
        kind, position = step[0], step[1] % (len(data) + 1)
        if kind == "truncate":
            del data[position:]
        elif kind == "flip" and position < len(data):
            data[position] ^= step[2]
        elif kind == "insert":
            data[position:position] = step[2]
    return bytes(data)


def _assert_within_bounds(trace: ColumnarTrace) -> None:
    n = len(trace.timestamps)
    assert (
        len(trace.item_index)
        == len(trace.offsets)
        == len(trace.sizes)
        == len(trace.flags)
        == n
    )
    for i in range(n):
        assert 0 <= trace.item_index[i] < len(trace.items)
        assert math.isfinite(trace.timestamps[i]) and trace.timestamps[i] >= 0
        assert trace.offsets[i] >= 0
        assert trace.sizes[i] >= 1
        assert trace.flags[i] & ~(FLAG_READ | FLAG_SEQUENTIAL) == 0
    # Every record materializes: the bounds are the record's own.
    assert len(list(trace)) == n


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ecot-fuzz")
    counter = itertools.count()
    return lambda: directory / f"case-{next(counter)}.ecot"


@given(
    trace=traces(),
    steps=st.lists(mutations, min_size=1, max_size=4),
    use_mmap=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_damaged_ecot_raises_trace_error_or_loads_in_bounds(
    scratch, trace, steps, use_mmap
):
    source = scratch()
    trace.save(source)
    damaged = scratch()
    damaged.write_bytes(_mutate(source.read_bytes(), steps))
    try:
        loaded = ColumnarTrace.load(damaged, use_mmap=use_mmap)
    except TraceError:
        return
    _assert_within_bounds(loaded)


@given(trace=traces())
@settings(max_examples=50, deadline=None)
def test_undamaged_ecot_loads_equal(scratch, trace):
    path = scratch()
    trace.save(path)
    assert ColumnarTrace.load(path) == trace
