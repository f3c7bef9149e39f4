"""Tests for repro.core.hotcold."""

import pytest

from repro.core.hotcold import choose_hot_cold, required_hot_count
from repro.core.patterns import IOPattern

from tests.core.profile_helpers import BUCKET, make_profile, make_table

GB = 1 << 30


def i_max(profiles, bucket_seconds=BUCKET):
    """``I_max`` as :func:`required_hot_count` computes it."""
    return required_hot_count(make_table(profiles), 1.0, GB, bucket_seconds)[1]


class TestPeakAggregate:
    def test_no_p3_items_gives_zero(self):
        profiles = {
            "a": make_profile("a", IOPattern.P1, "e0"),
        }
        assert i_max(profiles) == 0.0

    def test_coincident_buckets_add(self):
        profiles = {
            "a": make_profile(
                "a", IOPattern.P3, "e0", bucket_counts=(6, 0, 0)
            ),
            "b": make_profile(
                "b", IOPattern.P3, "e1", bucket_counts=(6, 0, 0)
            ),
        }
        assert i_max(profiles) == pytest.approx(12 / BUCKET)

    def test_non_coincident_buckets_do_not_add(self):
        profiles = {
            "a": make_profile(
                "a", IOPattern.P3, "e0", bucket_counts=(6, 0)
            ),
            "b": make_profile(
                "b", IOPattern.P3, "e1", bucket_counts=(0, 6)
            ),
        }
        assert i_max(profiles) == pytest.approx(6 / BUCKET)

    def test_percentile_suppresses_single_bucket_noise(self):
        # 19 quiet buckets + 1 spike: the p95 ignores the spike...
        spike = tuple([6] * 19 + [60])
        profiles = {"a": make_profile("a", IOPattern.P3, "e0", bucket_counts=spike)}
        assert i_max(profiles) == pytest.approx(6 / BUCKET)
        # ...but a burst that spans two of the 20 buckets is load.
        burst = tuple([6] * 18 + [60, 60])
        profiles = {"a": make_profile("a", IOPattern.P3, "e0", bucket_counts=burst)}
        assert i_max(profiles) == pytest.approx(60 / BUCKET)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            i_max({}, 0.0)
        with pytest.raises(ValueError):
            i_max({}, -BUCKET)


class TestRequiredHotCount:
    def test_iops_bound(self):
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P3, "e0", size_bytes=GB,
                bucket_counts=(60,) * 10,
            )
            for k in range(3)
        }
        # Aggregate 3 IOPS, capacity 1 IOPS per enclosure -> 3 hot.
        n, i_max = required_hot_count(make_table(profiles), 1.0, 100 * GB, BUCKET)
        assert i_max == pytest.approx(3.0)
        assert n == 3

    def test_size_bound(self):
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P3, "e0", size_bytes=10 * GB,
                bucket_counts=(1,) * 10,
            )
            for k in range(4)
        }
        n, _ = required_hot_count(make_table(profiles), 100.0, 15 * GB, BUCKET)
        assert n == 3  # ceil(40 GB / 15 GB)

    def test_no_p3_needs_zero(self):
        profiles = {"a": make_profile("a", IOPattern.P1, "e0")}
        n, i_max = required_hot_count(make_table(profiles), 1.0, GB, BUCKET)
        assert n == 0
        assert i_max == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            required_hot_count(make_table({}), 0.0, GB, BUCKET)
        with pytest.raises(ValueError):
            required_hot_count(make_table({}), 1.0, 0, BUCKET)


class TestChooseHotCold:
    def enclosures(self):
        return ["e0", "e1", "e2", "e3"]

    def test_richest_p3_enclosures_become_hot(self):
        profiles = {
            "big": make_profile("big", IOPattern.P3, "e2", size_bytes=10 * GB),
            "small": make_profile("small", IOPattern.P3, "e0", size_bytes=GB),
        }
        split = choose_hot_cold(make_table(profiles), self.enclosures(), 1, 1.0)
        assert split.hot == ("e2",)
        assert "e0" in split.cold

    def test_n_hot_above_enclosure_count_selects_all(self):
        split = choose_hot_cold(make_table({}), self.enclosures(), 99, 0.0)
        assert set(split.hot) == set(self.enclosures())
        assert split.cold == ()

    def test_zero_hot(self):
        split = choose_hot_cold(make_table({}), self.enclosures(), 0, 0.0)
        assert split.hot == ()
        assert set(split.cold) == set(self.enclosures())

    def test_deterministic_tiebreak_by_name(self):
        split = choose_hot_cold(make_table({}), self.enclosures(), 2, 0.0)
        assert split.hot == ("e0", "e1")

    def test_hysteresis_prefers_current_hot(self):
        profiles = {
            "a": make_profile("a", IOPattern.P3, "e0", size_bytes=GB),
            "b": make_profile("b", IOPattern.P3, "e1", size_bytes=int(1.1 * GB)),
        }
        # Without preference e1 (more bytes) wins the single hot slot...
        free = choose_hot_cold(make_table(profiles), self.enclosures(), 1, 1.0)
        assert free.hot == ("e1",)
        # ...but a sticky preference for e0 keeps it hot on a near-tie.
        sticky = choose_hot_cold(
            make_table(profiles), self.enclosures(), 1, 1.0, preferred_hot={"e0"}
        )
        assert sticky.hot == ("e0",)

    def test_hysteresis_does_not_override_big_differences(self):
        profiles = {
            "a": make_profile("a", IOPattern.P3, "e0", size_bytes=GB),
            "b": make_profile("b", IOPattern.P3, "e1", size_bytes=10 * GB),
        }
        split = choose_hot_cold(
            make_table(profiles), self.enclosures(), 1, 1.0, preferred_hot={"e0"}
        )
        assert split.hot == ("e1",)

    def test_membership_helpers(self):
        split = choose_hot_cold(make_table({}), self.enclosures(), 2, 0.0)
        assert split.is_cold("e3")

    def test_invalid_stickiness(self):
        with pytest.raises(ValueError):
            choose_hot_cold(make_table({}), self.enclosures(), 1, 0.0, stickiness=0.5)

    def test_negative_n_hot_rejected(self):
        with pytest.raises(ValueError):
            choose_hot_cold(make_table({}), self.enclosures(), -1, 0.0)


class TestDetermineHotCold:
    def test_end_to_end(self):
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P3, f"e{k % 2}", size_bytes=GB,
                bucket_counts=(30,) * 10,
            )
            for k in range(4)
        }
        n_hot, peak = required_hot_count(make_table(profiles), 1.0, 100 * GB, BUCKET)
        split = choose_hot_cold(make_table(profiles), ["e0", "e1", "e2"], n_hot, peak)
        # Aggregate 2 IOPS over capacity 1 -> 2 hot enclosures.
        assert split.n_hot == 2
        assert set(split.hot) == {"e0", "e1"}
