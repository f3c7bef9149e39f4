"""Property tests: trace serialization round-trips exactly."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.reader import read_logical_trace
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.writer import write_logical_trace

item_ids = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="/-_."
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def logical_records(draw):
    # Timestamps quantized to microseconds: the writer serializes %.6f.
    micros = draw(st.integers(min_value=0, max_value=10**12))
    return LogicalIORecord(
        timestamp=micros / 1e6,
        item_id=draw(item_ids),
        offset=draw(st.integers(min_value=0, max_value=2**40)),
        size=draw(st.integers(min_value=1, max_value=2**30)),
        io_type=draw(st.sampled_from(IOType)),
        sequential=draw(st.booleans()),
    )


@given(st.lists(logical_records(), max_size=50))
@settings(max_examples=100)
def test_logical_roundtrip(records):
    buffer = io.StringIO()
    write_logical_trace(records, buffer)
    buffer.seek(0)
    assert read_logical_trace(buffer) == records

