"""Property tests: Step 1 (``build_profiles``) against a brute-force oracle.

The oracle below is written straight from the paper's definitions
(PAPER.md §1, §II-C.2), one item at a time and with no shared code:
sort the item's I/O times; a gap strictly longer than the break-even
time is a Long Interval, the two boundary gaps included; an I/O
Sequence is a maximal run of I/Os with no Long Interval inside; an item
with no I/O has one Long Interval over the whole window.  P0 has no
sequence, P3 no Long Interval, and P1 needs reads > 50 % of the I/Os.

Both the per-item definition (``extract_activity`` + ``classify``) and
the whole-window array kernel (``build_profiles``) must agree with it.
The kernel's ``ProfileTable`` is checked column by column, row by row,
interval and sequence columns included, as Python ``int``/``float``
scalars after ``tolist()``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IOSequence, ItemActivity, extract_activity
from repro.core.patterns import IOPattern, build_profiles
from repro.errors import ValidationError
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord

from tests.core.profile_helpers import ProfileRow, activity_pattern, table_rows

ITEMS = ("i0", "i1", "i2", "i3", "i4")
#: Window I/O for these ids is ignored: they are not in ``item_sizes``.
GHOSTS = ("ghost-a", "ghost-b")

#: ``(window_start, window_end, break_even_time, bucket_seconds)``.
WINDOWS = (
    (0.0, 5000.0, 52.0, 60.0),
    (100.0, 700.0, 52.0, 60.0),  # exact multiple of the bucket length
    (250.0, 1000.0, 40.0, 60.0),  # last bucket shorter than the rest
    # ceil(window / bucket) leaves a last bucket of length 0.0
    (1.0, 1.3, 0.05, 0.1),
    (0.0, 0.30000000000000004, 0.05, 0.1),
    (3.0, 9.5, 1.0, 7.0),  # a single bucket longer than the window
)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def oracle_activity(item_id, events, start, end, break_even):
    """Long Intervals and I/O Sequences of one item, from the definitions."""
    events = sorted(events, key=lambda event: event[0])
    if not events:
        return ItemActivity(item_id, start, end, (Interval(start, end),), ())
    points = [start] + [time for time, _ in events] + [end]
    long_intervals = tuple(
        Interval(a, b) for a, b in zip(points, points[1:]) if b - a > break_even
    )
    runs = [[events[0]]]
    for before, event in zip(events, events[1:]):
        if event[0] - before[0] > break_even:
            runs.append([event])
        else:
            runs[-1].append(event)
    sequences = tuple(
        IOSequence(
            run[0][0],
            run[-1][0],
            sum(1 for _, is_read in run if is_read),
            sum(1 for _, is_read in run if not is_read),
        )
        for run in runs
    )
    return ItemActivity(item_id, start, end, long_intervals, sequences)


def oracle_pattern(activity):
    if not activity.sequences:
        return IOPattern.P0
    if not activity.long_intervals:
        return IOPattern.P3
    reads = sum(seq.read_count for seq in activity.sequences)
    total = sum(seq.read_count + seq.write_count for seq in activity.sequences)
    return IOPattern.P1 if reads / total > 0.5 else IOPattern.P2


def as_row_fields(activity):
    """An activity's intervals and sequences as a row's tuples."""
    return {
        "long_intervals": tuple((i.start, i.end) for i in activity.long_intervals),
        "sequences": tuple(
            (seq.start, seq.end, seq.read_count, seq.write_count)
            for seq in activity.sequences
        ),
    }


def oracle_profiles(records, start, end, break_even, bucket, sizes, enclosures):
    window = end - start
    bucket_count = max(1, math.ceil(window / bucket))
    lengths = [bucket] * (bucket_count - 1) + [window - (bucket_count - 1) * bucket]
    profiles = {}
    for item_id, size in sizes.items():
        mine = [rec for rec in records if rec.item_id == item_id]
        activity = oracle_activity(
            item_id, [(rec.timestamp, rec.is_read) for rec in mine], start, end, break_even
        )
        counts = [0] * bucket_count
        for rec in mine:
            counts[min(bucket_count - 1, math.floor((rec.timestamp - start) / bucket))] += 1
        rates = [count / length for count, length in zip(counts, lengths) if length > 0]
        reads = [rec for rec in mine if rec.is_read]
        writes = [rec for rec in mine if not rec.is_read]
        profiles[item_id] = ProfileRow(
            item_id=item_id,
            pattern=oracle_pattern(activity),
            enclosure=enclosures[item_id],
            size_bytes=size,
            mean_iops=len(mine) / window,
            peak_iops=max(rates, default=0.0),
            bucket_counts=tuple(counts),
            io_count=len(mine),
            read_count=len(reads),
            read_bytes=sum(rec.size for rec in reads),
            write_bytes=sum(rec.size for rec in writes),
            **as_row_fields(activity),
        )
    return profiles


def definition_profiles(records, start, end, break_even, bucket, sizes, enclosures):
    """The oracle's rows with activity and pattern from the per-item
    definition (``extract_activity`` + ``classify``) instead."""
    expected = oracle_profiles(records, start, end, break_even, bucket, sizes, enclosures)
    out = {}
    for item_id, profile in expected.items():
        events = [(rec.timestamp, rec.is_read) for rec in records if rec.item_id == item_id]
        activity = extract_activity(item_id, events, start, end, break_even)
        out[item_id] = profile._replace(
            pattern=activity_pattern(activity), **as_row_fields(activity)
        )
    return out


def assert_python_scalars(row):
    assert type(row.item_id) is str
    assert type(row.enclosure) is str
    for name in ("size_bytes", "io_count", "read_count", "read_bytes", "write_bytes"):
        assert type(getattr(row, name)) is int, name
    assert type(row.mean_iops) is float
    assert type(row.peak_iops) is float
    assert all(type(count) is int for count in row.bucket_counts)
    for interval in row.long_intervals:
        assert all(type(bound) is float for bound in interval)
    for seq_start, seq_end, reads, writes in row.sequences:
        assert type(seq_start) is float and type(seq_end) is float
        assert type(reads) is int and type(writes) is int


def assert_table_shape(table):
    """Per-item columns hold one row per item; bounds cut the flat ones."""
    n = len(table)
    for name in (
        "size_bytes", "enclosure_codes", "pattern_codes", "io_count",
        "read_count", "read_bytes", "write_bytes", "mean_iops", "peak_iops",
    ):
        assert getattr(table, name).shape == (n,), name
    assert table.bucket_counts.ndim == 2 and len(table.bucket_counts) == n
    for prefix, columns in (
        ("interval", ("starts", "ends")),
        ("sequence", ("starts", "ends", "reads", "writes")),
    ):
        bounds = getattr(table, f"{prefix}_bounds")
        assert bounds.shape == (n + 1,) and bounds[0] == 0
        assert np.all(np.diff(bounds) >= 0)
        for column in columns:
            assert getattr(table, f"{prefix}_{column}").shape == (bounds[-1],)
    assert table.code_of == {item: code for code, item in enumerate(table.item_ids)}


def assert_profiles_equal(actual, expected):
    """``actual`` (a table, or rows) holds exactly the ``expected`` rows."""
    if not isinstance(actual, dict):
        assert_table_shape(actual)
        actual = table_rows(actual)
    assert list(actual) == list(expected)
    for item_id, profile in expected.items():
        assert actual[item_id] == profile, item_id
        assert_python_scalars(actual[item_id])


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
def as_trace_slice(records, head_items):
    """``records`` as a window sliced out of a longer trace.

    The slice starts after one row per ``head_items`` entry and ends
    before a row of another item, so it starts at a non-zero row and
    its item table holds items with no I/O in the window, some not in
    ``item_sizes`` at all.
    """
    head = [LogicalIORecord(0.0, item, 0, 1, IOType.READ) for item in head_items]
    tail = [LogicalIORecord(9e9, "tail-only", 0, 1, IOType.WRITE)]
    trace = ColumnarTrace.from_records(head + records + tail)
    return trace[len(head) : len(head) + len(records)]


@st.composite
def windows(draw):
    """One monitoring window: bounds, placed items, and its time-ordered I/O."""
    start, end, break_even, bucket = draw(st.sampled_from(WINDOWS))
    placed = draw(st.permutations(ITEMS))[: draw(st.integers(0, len(ITEMS)))]
    sizes = {item: draw(st.integers(1, 1 << 40)) for item in placed}
    enclosures = {item: f"enc-{draw(st.integers(0, 3))}" for item in placed}
    # Times on grids from either window bound make gaps exactly equal
    # to the break-even time (boundary gaps included) and I/Os exactly
    # on bucket edges.
    steps = st.tuples(
        st.integers(0, 12), st.sampled_from((break_even, break_even / 2, bucket))
    )
    times = st.one_of(
        st.just(start),
        st.just(end),
        steps.map(lambda step: min(end, start + step[0] * step[1])),
        steps.map(lambda step: max(start, end - step[0] * step[1])),
        st.floats(start, end, allow_nan=False, allow_infinity=False),
    )
    ios = draw(
        st.lists(
            st.tuples(
                times,
                st.sampled_from(ITEMS + GHOSTS),
                st.integers(1, 1 << 20),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    ios.sort(key=lambda io: io[0])
    records = [
        LogicalIORecord(
            time, item, 0, size, IOType.READ if is_read else IOType.WRITE
        )
        for time, item, size, is_read in ios
    ]
    return records, start, end, break_even, bucket, sizes, enclosures


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(windows())
@settings(max_examples=300, deadline=None)
def test_definition_agrees_with_oracle(case):
    assert_profiles_equal(definition_profiles(*case), oracle_profiles(*case))


@given(windows())
@settings(max_examples=300, deadline=None)
def test_build_profiles_agrees_with_oracle(case):
    records, start, end, break_even, bucket, sizes, enclosures = case
    actual = build_profiles(
        records, start, end, break_even, sizes, enclosures, iops_bucket_seconds=bucket
    )
    assert_profiles_equal(actual, oracle_profiles(*case))


@given(windows(), st.data())
@settings(max_examples=150, deadline=None)
def test_input_forms_give_equal_profiles(case, data):
    records, start, end, break_even, bucket, sizes, enclosures = case
    args = (start, end, break_even, sizes, enclosures)
    head_items = data.draw(
        st.lists(st.sampled_from(ITEMS + GHOSTS + ("head-only",)), min_size=1)
    )
    from_records = build_profiles(records, *args, iops_bucket_seconds=bucket)
    for columns in (
        as_trace_slice(records, head_items),
        ColumnarTrace.from_records(records),
    ):
        from_columns = build_profiles(columns, *args, iops_bucket_seconds=bucket)
        assert_profiles_equal(from_columns, table_rows(from_records))


@given(windows(), st.data())
@settings(max_examples=150, deadline=None)
def test_renaming_items_only_renames_profiles(case, data):
    records, start, end, break_even, bucket, sizes, enclosures = case
    renamed_ids = data.draw(st.permutations([f"r{k}" for k in range(len(ITEMS + GHOSTS))]))
    rename = dict(zip(ITEMS + GHOSTS, renamed_ids))
    renamed = build_profiles(
        [dataclasses.replace(rec, item_id=rename[rec.item_id]) for rec in records],
        start,
        end,
        break_even,
        {rename[item]: size for item, size in sizes.items()},
        {rename[item]: enc for item, enc in enclosures.items()},
        iops_bucket_seconds=bucket,
    )
    original = build_profiles(
        records, start, end, break_even, sizes, enclosures, iops_bucket_seconds=bucket
    )
    expected = {
        rename[item]: profile._replace(item_id=rename[item])
        for item, profile in table_rows(original).items()
    }
    assert_profiles_equal(renamed, expected)


def first_definition_error(records, start, end, break_even, sizes):
    """The ValidationError the per-item definition raises first, walking
    items in ``item_sizes`` order."""
    for item_id in sizes:
        events = [(rec.timestamp, rec.is_read) for rec in records if rec.item_id == item_id]
        try:
            extract_activity(item_id, events, start, end, break_even)
        except ValidationError as error:
            return str(error)
    return None


@given(windows(), st.data())
@settings(max_examples=150, deadline=None)
def test_disordered_item_raises_like_the_definition(case, data):
    records, start, end, break_even, bucket, sizes, enclosures = case
    if not records:
        return
    victim = records[data.draw(st.integers(0, len(records) - 1))]
    if data.draw(st.booleans()):
        # Append an early copy of one I/O: it follows a later I/O of its
        # item, or precedes the window start.
        shift = data.draw(st.sampled_from((0.5, 1000.0)))
        early = dataclasses.replace(victim, timestamp=max(0.0, start - shift))
        tampered = records + [early]
    else:
        # Reverse one item's events in place.
        mine = [i for i, rec in enumerate(records) if rec.item_id == victim.item_id]
        tampered = list(records)
        for i, j in zip(mine, reversed(mine)):
            tampered[i] = records[j]
    message = first_definition_error(tampered, start, end, break_even, sizes)
    args = (start, end, break_even, sizes, enclosures)
    if message is None:
        build_profiles(tampered, *args, iops_bucket_seconds=bucket)
        return
    with pytest.raises(ValidationError) as raised:
        build_profiles(tampered, *args, iops_bucket_seconds=bucket)
    assert str(raised.value) == message


def test_io_before_window_start_is_a_validation_error():
    # Far enough back that the bucket index would be negative.
    records = [
        LogicalIORecord(900.0, "b", 0, 1, IOType.READ),
        LogicalIORecord(10.0, "a", 0, 1, IOType.READ),
    ]
    sizes = {"a": 1, "b": 1}
    enclosures = {"a": "e0", "b": "e0"}
    with pytest.raises(ValidationError) as raised:
        build_profiles(records, 600.0, 1200.0, 52.0, sizes, enclosures)
    assert str(raised.value) == (
        "events of item 'a' are not time-ordered: 10.0 after 600.0"
    )


def test_out_of_order_names_first_item_in_item_sizes_order():
    records = [
        LogicalIORecord(5.0, "b", 0, 1, IOType.READ),
        LogicalIORecord(4.0, "b", 0, 1, IOType.READ),
        LogicalIORecord(9.0, "a", 0, 1, IOType.READ),
        LogicalIORecord(8.0, "a", 0, 1, IOType.WRITE),
    ]
    sizes = {"b": 1, "a": 1}
    enclosures = {"a": "e0", "b": "e0"}
    with pytest.raises(ValidationError) as raised:
        build_profiles(records, 0.0, 100.0, 52.0, sizes, enclosures)
    assert str(raised.value) == (
        "events of item 'b' are not time-ordered: 4.0 after 5.0"
    )


def test_zero_length_last_bucket_is_skipped_in_the_peak():
    # ceil(0.30000000000000004 / 0.1) == 4 and 3 * 0.1 fills the window,
    # so the fourth bucket has length 0.0; an I/O at the window end
    # lands there and must not produce an infinite rate.
    end = 0.30000000000000004
    records = [LogicalIORecord(end, "a", 0, 1, IOType.READ)]
    table = build_profiles(
        records, 0.0, end, 0.05, {"a": 1}, {"a": "e0"}, iops_bucket_seconds=0.1
    )
    row = table_rows(table)["a"]
    assert row.bucket_counts == (0, 0, 0, 1)
    assert row.peak_iops == 0.0
