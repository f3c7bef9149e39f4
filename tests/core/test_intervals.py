"""Tests for repro.core.intervals — the Fig 1 decomposition."""

import pytest

from repro.core.intervals import Interval, IOSequence, extract_activity
from repro.core.patterns import build_profiles
from repro.trace.records import IOType, LogicalIORecord

from tests.core.profile_helpers import table_rows

BE = 52.0  # break-even time used throughout


def activity(events, start=0.0, end=1000.0, be=BE):
    return extract_activity("item", events, start, end, be)


class TestDataTypes:
    def test_interval_length(self):
        assert Interval(10.0, 60.0).length == 50.0

    def test_interval_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(10.0, 5.0)

    def test_sequence_counts(self):
        seq = IOSequence(0.0, 10.0, read_count=3, write_count=2)
        assert seq.io_count == 5
        assert seq.duration == 10.0

    def test_sequence_must_contain_io(self):
        with pytest.raises(ValueError):
            IOSequence(0.0, 1.0, 0, 0)


class TestNoIO:
    def test_empty_window_is_one_long_interval(self):
        act = activity([])
        assert len(act.long_intervals) == 1
        assert act.long_intervals[0] == Interval(0.0, 1000.0)
        assert act.sequences == ()
        assert act.io_count == 0


class TestLongIntervalDetection:
    def test_gap_above_break_even_is_long(self):
        act = activity([(100.0, True), (200.0, True)])
        lengths = [i.length for i in act.long_intervals]
        assert 100.0 in lengths  # middle gap

    def test_gap_at_break_even_is_not_long(self):
        act = activity([(10.0, True), (10.0 + BE, True)], end=70.0)
        # Exactly break-even: not strictly longer.
        internal = [
            i for i in act.long_intervals if i.start == 10.0
        ]
        assert internal == []

    def test_leading_boundary_gap_counts(self):
        act = activity([(500.0, True)], end=510.0)
        assert Interval(0.0, 500.0) in act.long_intervals

    def test_trailing_boundary_gap_counts(self):
        act = activity([(5.0, True)], end=1000.0)
        assert Interval(5.0, 1000.0) in act.long_intervals

    def test_fig1_shape_three_longs_three_sequences(self):
        """Reconstruct Fig 1: three Long Intervals, three I/O Sequences,
        the last Long Interval ending at the window end."""
        events = []
        # Sequence 1 at the window start.
        events += [(1.0, True), (5.0, True)]
        # Long interval 1, then sequence 2.
        events += [(100.0, True), (110.0, False)]
        # Long interval 2, then sequence 3.
        events += [(300.0, False), (305.0, True)]
        act = activity(events, end=600.0)  # trailing 295 s = long #3
        assert len(act.long_intervals) == 3
        assert len(act.sequences) == 3
        assert act.long_intervals[-1].end == 600.0


class TestSequences:
    def test_single_run(self):
        act = activity([(1.0, True), (10.0, False), (20.0, True)])
        # 20 -> 1000 is a trailing long interval; one sequence.
        assert len(act.sequences) == 1
        seq = act.sequences[0]
        assert seq.read_count == 2
        assert seq.write_count == 1
        assert seq.start == 1.0
        assert seq.end == 20.0

    def test_short_internal_gaps_join_sequences(self):
        events = [(float(t), True) for t in range(0, 200, 40)]
        act = activity(events, end=210.0)
        assert len(act.sequences) == 1

    def test_long_gap_splits_sequences(self):
        act = activity([(1.0, True), (200.0, True)], end=210.0)
        assert len(act.sequences) == 2

    def test_counts_aggregate(self):
        act = activity(
            [(1.0, True), (2.0, False), (200.0, False)], end=210.0
        )
        assert act.read_count == 1
        assert act.write_count == 2
        assert act.io_count == 3


class TestValidation:
    def test_unordered_events_rejected(self):
        with pytest.raises(ValueError):
            activity([(5.0, True), (1.0, True)])

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            extract_activity("x", [], 10.0, 5.0, BE)

    def test_non_positive_break_even_rejected(self):
        with pytest.raises(ValueError):
            extract_activity("x", [], 0.0, 10.0, 0.0)


class TestFromRecords:
    def test_wrapper_matches_raw_events(self):
        # Profiles built from records carry the activity of the raw
        # (timestamp, is_read) events.
        records = [
            LogicalIORecord(1.0, "x", 0, 1, IOType.READ),
            LogicalIORecord(200.0, "x", 0, 1, IOType.WRITE),
        ]
        table = build_profiles(records, 0.0, 300.0, BE, {"x": 1}, {"x": "e0"})
        row = table_rows(table)["x"]
        raw = activity([(1.0, True), (200.0, False)], end=300.0)
        assert row.long_intervals == tuple(
            (interval.start, interval.end) for interval in raw.long_intervals
        )
        assert row.read_count == raw.read_count



class TestInvariantHelpers:
    def test_total_long_interval_length(self):
        act = activity([(500.0, True)], end=1000.0)
        total = sum(interval.length for interval in act.long_intervals)
        assert total == pytest.approx(1000.0)
