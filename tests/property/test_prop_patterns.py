"""Property tests: P0-P3 classification invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import extract_activity
from repro.core.patterns import IOPattern

from tests.core.profile_helpers import activity_pattern

BE = 52.0
WINDOW_END = 5000.0


@st.composite
def event_lists(draw):
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=WINDOW_END, allow_nan=False),
            max_size=50,
        )
    )
    times.sort()
    reads = draw(
        st.lists(st.booleans(), min_size=len(times), max_size=len(times))
    )
    return list(zip(times, reads))


@given(event_lists())
@settings(max_examples=300)
def test_exactly_one_pattern(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    pattern = activity_pattern(activity)
    assert pattern in IOPattern


@given(event_lists())
@settings(max_examples=300)
def test_p0_iff_no_io(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    pattern = activity_pattern(activity)
    assert (pattern is IOPattern.P0) == (len(events) == 0)


@given(event_lists())
@settings(max_examples=300)
def test_p3_iff_no_long_interval_with_io(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    pattern = activity_pattern(activity)
    if events:
        assert (pattern is IOPattern.P3) == (not activity.long_intervals)


@given(event_lists())
@settings(max_examples=300)
def test_p1_implies_read_majority(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    pattern = activity_pattern(activity)
    if pattern is IOPattern.P1:
        assert 2 * activity.read_count > activity.io_count
    if pattern is IOPattern.P2:
        assert 2 * activity.read_count <= activity.io_count


@given(event_lists())
@settings(max_examples=100)
def test_flipping_io_direction_swaps_p1_p2(events):
    activity = extract_activity("x", events, 0.0, WINDOW_END, BE)
    flipped = extract_activity(
        "x", [(t, not r) for t, r in events], 0.0, WINDOW_END, BE
    )
    pattern, anti = activity_pattern(activity), activity_pattern(flipped)
    if pattern is IOPattern.P1:
        assert anti is IOPattern.P2
    # The timing structure is unchanged either way.
    assert activity.long_intervals == flipped.long_intervals
