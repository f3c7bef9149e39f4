"""Direct tests for the workload event-stream building blocks."""

import numpy as np
import pytest

from repro import units
from repro.workloads.base import (
    EventStream,
    burst_events,
    merge_streams,
    scan_events,
    steady_events,
    steady_with_lulls_events,
)

RNG = lambda: np.random.default_rng(5)  # noqa: E731
SIZE = 100 * units.MB
DURATION = 2000.0


class TestSteadyEvents:
    def test_gaps_within_bounds(self):
        stream = steady_events(RNG(), "a", SIZE, DURATION, 5.0, 20.0, 0.5)
        gaps = np.diff(stream.times)
        assert gaps.min() >= 5.0 - 1e-9
        assert gaps.max() <= 20.0 + 1e-9

    def test_stream_reaches_window_end(self):
        stream = steady_events(RNG(), "a", SIZE, DURATION, 5.0, 20.0, 0.5)
        # No truncated tail: the last event is within one max-gap of the
        # end (otherwise a spurious Long Interval appears).
        assert stream.times[-1] > DURATION - 20.0
        assert stream.times[-1] < DURATION

    def test_read_fraction_respected(self):
        stream = steady_events(RNG(), "a", SIZE, DURATION, 1.0, 3.0, 0.8)
        assert stream.is_read.mean() == pytest.approx(0.8, abs=0.05)

    def test_offsets_inside_item(self):
        stream = steady_events(RNG(), "a", SIZE, DURATION, 5.0, 20.0, 0.5)
        assert (stream.offsets >= 0).all()
        assert (stream.offsets < SIZE).all()

    def test_invalid_gaps_rejected(self):
        with pytest.raises(ValueError):
            steady_events(RNG(), "a", SIZE, DURATION, 0.0, 20.0, 0.5)
        with pytest.raises(ValueError):
            steady_events(RNG(), "a", SIZE, DURATION, 30.0, 20.0, 0.5)


class TestLullEvents:
    def test_has_both_short_gaps_and_lulls(self):
        stream = steady_with_lulls_events(
            RNG(), "a", SIZE, 20_000.0, 10.0, 40.0, 0.1, 200.0, 800.0, 0.9
        )
        gaps = np.diff(stream.times)
        assert (gaps <= 40.0).any()
        assert (gaps >= 200.0).any()

    def test_lull_fraction_roughly_right(self):
        stream = steady_with_lulls_events(
            RNG(), "a", SIZE, 50_000.0, 10.0, 40.0, 0.1, 200.0, 800.0, 0.9
        )
        gaps = np.diff(stream.times)
        lulls = (gaps > 100.0).mean()
        assert lulls == pytest.approx(0.1, abs=0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            steady_with_lulls_events(
                RNG(), "a", SIZE, DURATION, 10.0, 40.0, 1.5, 200.0, 800.0, 0.9
            )


class TestBurstEvents:
    def test_interburst_floor_respected(self):
        stream = burst_events(
            RNG(), "a", SIZE, 30_000.0,
            mean_interburst=2000.0, min_interburst=500.0,
            burst_size_low=10, burst_size_high=20,
            burst_duration_low=5.0, burst_duration_high=15.0,
            read_fraction=0.9,
        )
        gaps = np.diff(stream.times)
        # Gaps above the burst span must be at least the floor.
        big = gaps[gaps > 15.0]
        assert (big >= 500.0 - 1e-9).all()

    def test_at_least_one_burst_guaranteed(self):
        # Even with an absurd inter-burst time, the item is accessed
        # once (Fig 6: no P0 items).
        stream = burst_events(
            RNG(), "a", SIZE, 100.0,
            mean_interburst=10**9, min_interburst=10**9,
            burst_size_low=5, burst_size_high=10,
            burst_duration_low=5.0, burst_duration_high=10.0,
            read_fraction=0.9,
        )
        assert len(stream.times) > 0
        assert stream.times[-1] < 100.0

    def test_burst_sizes_within_bounds(self):
        stream = burst_events(
            RNG(), "a", SIZE, 50_000.0,
            mean_interburst=3000.0, min_interburst=1000.0,
            burst_size_low=10, burst_size_high=12,
            burst_duration_low=5.0, burst_duration_high=10.0,
            read_fraction=0.9,
        )
        gaps = np.diff(stream.times)
        boundaries = np.where(gaps > 100.0)[0]
        sizes = np.diff(np.concatenate([[0], boundaries + 1, [len(stream.times)]]))
        # Interior bursts respect the configured size range (the last
        # may be truncated by the window end).
        for size in sizes[:-1]:
            assert 10 <= size <= 12

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_events(
                RNG(), "a", SIZE, DURATION,
                mean_interburst=0.0, min_interburst=1.0,
                burst_size_low=1, burst_size_high=2,
                burst_duration_low=1.0, burst_duration_high=2.0,
                read_fraction=0.5,
            )


class TestScanEvents:
    def test_event_count_matches_rate(self):
        stream = scan_events(RNG(), "a", SIZE, 100.0, 50.0, iops=2.0)
        assert len(stream.times) == 100

    def test_times_confined_to_phase(self):
        stream = scan_events(RNG(), "a", SIZE, 100.0, 50.0, iops=2.0)
        assert stream.times.min() >= 100.0
        assert stream.times.max() <= 150.0

    def test_offsets_monotone_modulo_wrap(self):
        stream = scan_events(
            RNG(), "a", 10 * units.MB, 0.0, 10.0, iops=1.0,
            io_size=units.MB,
        )
        diffs = np.diff(stream.offsets)
        # Sequential advance except at wrap points.
        assert ((diffs == units.MB) | (diffs < 0)).all()

    def test_sequential_flag_set(self):
        stream = scan_events(RNG(), "a", SIZE, 0.0, 10.0, iops=1.0)
        assert stream.sequential

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_events(RNG(), "a", SIZE, 0.0, 0.0, iops=1.0)


class TestMergeStreams:
    def test_merged_trace_time_ordered(self):
        a = steady_events(RNG(), "a", SIZE, 500.0, 5.0, 10.0, 0.5)
        b = steady_events(RNG(), "b", SIZE, 500.0, 3.0, 8.0, 0.5)
        records = merge_streams([a, b])
        times = [r.timestamp for r in records]
        assert times == sorted(times)
        assert len(records) == len(a.times) + len(b.times)

    def test_empty_streams_dropped(self):
        empty = EventStream(
            "e",
            np.empty(0),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        a = steady_events(RNG(), "a", SIZE, 100.0, 5.0, 10.0, 0.5)
        records = merge_streams([empty, a])
        assert len(records) == len(a.times)

    def test_no_streams(self):
        assert len(merge_streams([])) == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            EventStream(
                "x",
                np.array([1.0]),
                np.array([], dtype=bool),
                np.array([0]),
                np.array([4096]),
            )
