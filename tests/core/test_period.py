"""Tests for repro.core.period — the adaptive monitoring period."""

import pytest

from repro.core.patterns import IOPattern
from repro.core.period import collect_long_intervals, next_monitoring_period

from tests.core.profile_helpers import make_profile, make_table


class TestNextPeriod:
    def test_average_times_alpha(self):
        period = next_monitoring_period([100.0, 200.0], 520.0, 1.2, 7200.0)
        assert period == pytest.approx(150.0 * 1.2)

    def test_no_intervals_keeps_current(self):
        assert next_monitoring_period([], 520.0, 1.2, 7200.0) == 520.0

    def test_max_clamp(self):
        period = next_monitoring_period([100000.0], 520.0, 1.2, 7200.0)
        assert period == 7200.0

    def test_min_clamp(self):
        period = next_monitoring_period(
            [10.0], 520.0, 1.2, 7200.0, min_period=520.0
        )
        assert period == 520.0

    def test_growth_with_long_intervals(self):
        # Paper §IV-H: alpha > 1 grows the period when intervals exceed it.
        period = next_monitoring_period([600.0], 520.0, 1.2, 7200.0)
        assert period > 600.0

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            next_monitoring_period([1.0], 520.0, 1.0, 7200.0)

    def test_bad_current_period(self):
        with pytest.raises(ValueError):
            next_monitoring_period([1.0], 0.0, 1.2, 7200.0)

    def test_bad_min_period(self):
        with pytest.raises(ValueError):
            next_monitoring_period([1.0], 520.0, 1.2, 100.0, min_period=200.0)


class TestCollectLongIntervals:
    def test_collects_across_items(self):
        profiles = {
            "p0": make_profile("p0", IOPattern.P0, "e0"),
            "p1": make_profile("p1", IOPattern.P1, "e0"),
            "p3": make_profile("p3", IOPattern.P3, "e0"),
        }
        lengths = collect_long_intervals(make_table(profiles))
        # P0 contributes the whole 600 s window; P1 a 200 s interval;
        # P3 nothing.
        assert sorted(lengths) == [200.0, 600.0]

    def test_empty(self):
        assert collect_long_intervals(make_table({})) == []
