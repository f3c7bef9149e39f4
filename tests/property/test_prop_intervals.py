"""Property tests: Long Interval / I/O Sequence decomposition invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import extract_activity

BE = 52.0
WINDOW_END = 5000.0


@st.composite
def event_lists(draw):
    times = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=WINDOW_END,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=60,
        )
    )
    times.sort()
    reads = draw(
        st.lists(st.booleans(), min_size=len(times), max_size=len(times))
    )
    return list(zip(times, reads))


@given(event_lists())
@settings(max_examples=200)
def test_every_io_lands_in_exactly_one_sequence(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    assert activity.io_count == len(events)
    assert activity.read_count == sum(1 for _, r in events if r)
    assert activity.write_count == sum(1 for _, r in events if not r)


@given(event_lists())
@settings(max_examples=200)
def test_long_intervals_are_strictly_longer_than_break_even(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    for interval in activity.long_intervals:
        assert interval.length > BE


@given(event_lists())
@settings(max_examples=200)
def test_long_intervals_are_disjoint_and_ordered(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    intervals = activity.long_intervals
    for a, b in zip(intervals, intervals[1:]):
        assert a.end <= b.start


@given(event_lists())
@settings(max_examples=200)
def test_long_intervals_contain_no_events(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    for interval in activity.long_intervals:
        inside = [
            t for t, _ in events if interval.start < t < interval.end
        ]
        assert inside == []


@given(event_lists())
@settings(max_examples=200)
def test_sequences_are_within_window_and_ordered(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    sequences = activity.sequences
    for seq in sequences:
        assert 0.0 <= seq.start <= seq.end <= WINDOW_END
    for a, b in zip(sequences, sequences[1:]):
        assert a.end < b.start


@given(event_lists())
@settings(max_examples=200)
def test_sequence_internal_gaps_below_break_even(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    for seq in activity.sequences:
        inside = sorted(t for t, _ in events if seq.start <= t <= seq.end)
        for a, b in zip(inside, inside[1:]):
            assert b - a <= BE


@given(event_lists())
@settings(max_examples=200)
def test_gaps_between_consecutive_sequences_are_long(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    for a, b in zip(activity.sequences, activity.sequences[1:]):
        assert b.start - a.end > BE


@given(event_lists())
@settings(max_examples=200)
def test_total_long_interval_length_bounded_by_window(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    total = sum(i.length for i in activity.long_intervals)
    assert 0.0 <= total <= WINDOW_END + 1e-6


@given(event_lists(), st.floats(min_value=1.0, max_value=1000.0))
@settings(max_examples=100)
def test_larger_break_even_never_increases_long_interval_count(
    events, be
):
    small = extract_activity("x", events, 0.0, WINDOW_END, be)
    large = extract_activity("x", events, 0.0, WINDOW_END, be * 2)
    assert len(large.long_intervals) <= len(small.long_intervals)
    # And never increases the number of sequences either (they merge).
    assert len(large.sequences) <= len(small.sequences)
