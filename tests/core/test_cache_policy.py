"""Tests for repro.core.cache_policy — write-delay and preload selection."""

import pytest

from repro import units
from repro.core.cache_policy import (
    estimate_dirty_bytes,
    select_preload_items,
    select_write_delay_items,
)
from repro.core.patterns import IOPattern

from tests.core.profile_helpers import make_profile, make_table

MB = units.MB
COLD = ["e1", "e2"]


def locations(profiles):
    return {p.item_id: p.enclosure for p in profiles.values()}


class TestEstimateDirtyBytes:
    def test_capped_by_item_size(self):
        profile = make_profile(
            "a", IOPattern.P2, "e1", size_bytes=MB, write_bytes=10 * MB
        )
        assert estimate_dirty_bytes(make_table([profile])).tolist() == [MB]

    def test_write_bytes_when_smaller(self):
        profile = make_profile(
            "a", IOPattern.P2, "e1", size_bytes=10 * MB, write_bytes=MB
        )
        assert estimate_dirty_bytes(make_table([profile])).tolist() == [MB]


class TestWriteDelaySelection:
    def test_all_cold_p2_selected(self):
        profiles = {
            "p2a": make_profile(
                "p2a", IOPattern.P2, "e1", write_count=20, write_bytes=MB
            ),
            "p2b": make_profile(
                "p2b", IOPattern.P2, "e2", write_count=5, write_bytes=MB
            ),
        }
        selected = select_write_delay_items(
            make_table(profiles), COLD, locations(profiles), 100 * MB
        )
        assert selected == {"p2a", "p2b"}

    def test_hot_p2_not_selected(self):
        profiles = {
            "hotp2": make_profile(
                "hotp2", IOPattern.P2, "e0", write_count=20, write_bytes=MB
            ),
        }
        assert (
            select_write_delay_items(
                make_table(profiles), COLD, locations(profiles), 100 * MB
            )
            == set()
        )

    def test_p1_with_many_writes_added_when_space(self):
        profiles = {
            "p1": make_profile(
                "p1", IOPattern.P1, "e1", write_count=10, write_bytes=MB
            ),
        }
        selected = select_write_delay_items(
            make_table(profiles), COLD, locations(profiles), 100 * MB
        )
        assert selected == {"p1"}

    def test_p1_below_write_threshold_excluded(self):
        profiles = {
            "p1": make_profile(
                "p1", IOPattern.P1, "e1", write_count=2, write_bytes=MB
            ),
        }
        assert (
            select_write_delay_items(
                make_table(profiles), COLD, locations(profiles), 100 * MB
            )
            == set()
        )

    def test_budget_respected(self):
        profiles = {
            "big": make_profile(
                "big", IOPattern.P2, "e1",
                size_bytes=80 * MB, write_count=50, write_bytes=80 * MB,
            ),
            "bigger": make_profile(
                "bigger", IOPattern.P2, "e1",
                size_bytes=80 * MB, write_count=10, write_bytes=80 * MB,
            ),
        }
        selected = select_write_delay_items(
            make_table(profiles), COLD, locations(profiles), 100 * MB
        )
        # Only the more-written item fits the 100 MB budget.
        assert selected == {"big"}

    def test_p0_p3_never_selected(self):
        profiles = {
            "p0": make_profile("p0", IOPattern.P0, "e1", write_bytes=MB),
            "p3": make_profile(
                "p3", IOPattern.P3, "e1", write_count=100, write_bytes=MB
            ),
        }
        assert (
            select_write_delay_items(
                make_table(profiles), COLD, locations(profiles), 100 * MB
            )
            == set()
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_write_delay_items(make_table({}), COLD, {}, -1)


class TestPreloadSelection:
    def test_ranked_by_reads_per_byte(self):
        profiles = {
            "dense": make_profile(
                "dense", IOPattern.P1, "e1", size_bytes=MB, read_count=100
            ),
            "sparse": make_profile(
                "sparse", IOPattern.P1, "e1", size_bytes=50 * MB, read_count=100
            ),
        }
        selected = select_preload_items(
            make_table(profiles), COLD, locations(profiles), 40 * MB
        )
        assert selected == ["dense"]

    def test_budget_fills_greedily(self):
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P1, "e1", size_bytes=10 * MB,
                read_count=100 - k,
            )
            for k in range(5)
        }
        selected = select_preload_items(
            make_table(profiles), COLD, locations(profiles), 25 * MB
        )
        assert selected == ["i0", "i1"]

    def test_hot_items_excluded(self):
        profiles = {
            "hot": make_profile(
                "hot", IOPattern.P1, "e0", size_bytes=MB, read_count=100
            ),
        }
        assert (
            select_preload_items(make_table(profiles), COLD, locations(profiles), 100 * MB)
            == []
        )

    def test_p2_p3_excluded(self):
        profiles = {
            "p2": make_profile("p2", IOPattern.P2, "e1", read_count=100),
            "p3": make_profile("p3", IOPattern.P3, "e1", read_count=100),
        }
        assert (
            select_preload_items(make_table(profiles), COLD, locations(profiles), 1 << 40)
            == []
        )

    def test_pinned_items_kept_first(self):
        profiles = {
            "old": make_profile(
                "old", IOPattern.P1, "e1", size_bytes=30 * MB, read_count=1
            ),
            "new": make_profile(
                "new", IOPattern.P1, "e1", size_bytes=30 * MB, read_count=100
            ),
        }
        selected = select_preload_items(
            make_table(profiles),
            COLD,
            locations(profiles),
            40 * MB,
            already_pinned={"old"},
        )
        # Budget only fits one: the already-pinned item wins (re-reading
        # it costs nothing), even though "new" ranks higher.
        assert selected == ["old"]

    def test_pinned_p0_item_retained(self):
        profiles = {
            "quiet": make_profile(
                "quiet", IOPattern.P0, "e1", size_bytes=MB, read_count=0
            ),
        }
        selected = select_preload_items(
            make_table(profiles),
            COLD,
            locations(profiles),
            100 * MB,
            already_pinned={"quiet"},
        )
        assert selected == ["quiet"]

    def test_unpinned_p0_not_selected(self):
        profiles = {
            "quiet": make_profile(
                "quiet", IOPattern.P0, "e1", size_bytes=MB, read_count=0
            ),
        }
        assert (
            select_preload_items(make_table(profiles), COLD, locations(profiles), 100 * MB)
            == []
        )

    def test_oversized_item_skipped(self):
        profiles = {
            "huge": make_profile(
                "huge", IOPattern.P1, "e1", size_bytes=1 << 40, read_count=100
            ),
            "small": make_profile(
                "small", IOPattern.P1, "e1", size_bytes=MB, read_count=1
            ),
        }
        selected = select_preload_items(
            make_table(profiles), COLD, locations(profiles), 100 * MB
        )
        assert selected == ["small"]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_preload_items(make_table({}), COLD, {}, -1)
