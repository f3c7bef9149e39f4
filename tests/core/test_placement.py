"""Tests for repro.core.placement — paper Algorithms 2 and 3."""

import pytest

from repro.core.hotcold import HotColdSplit
from repro.core.patterns import IOPattern
from repro.core.placement import (
    EnclosureLedger,
    HotSetTooSmall,
    determine_placement,
    plan_evacuation,
    plan_p3_consolidation,
)

from tests.core.profile_helpers import BUCKET, make_profile, make_table

GB = 1 << 30
ENCLOSURES = ["e0", "e1", "e2", "e3"]


def split(hot, cold, i_max=1.0):
    return HotColdSplit(hot=tuple(hot), cold=tuple(cold), i_max=i_max, n_hot=len(hot))


class TestEnclosureLedger:
    def test_initial_state_from_profiles(self):
        profiles = {
            "a": make_profile("a", IOPattern.P3, "e0", size_bytes=GB, mean_iops=0.2),
            "b": make_profile("b", IOPattern.P1, "e1", size_bytes=2 * GB, mean_iops=0.1),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        assert ledger.used_bytes("e0") == GB
        assert ledger.used_bytes("e1") == 2 * GB
        assert ledger.mean_iops("e0") == pytest.approx(0.2)
        assert ledger.location("a") == "e0"

    def test_move_updates_projections(self):
        profiles = {
            "a": make_profile("a", IOPattern.P3, "e0", size_bytes=GB, mean_iops=0.2),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        ledger.move("a", "e2")
        assert ledger.used_bytes("e0") == 0
        assert ledger.used_bytes("e2") == GB
        assert ledger.mean_iops("e2") == pytest.approx(0.2)
        assert ledger.location("a") == "e2"

    def test_peak_iops_from_buckets(self):
        profiles = {
            "a": make_profile(
                "a", IOPattern.P3, "e0", bucket_counts=(12, 0, 0)
            ),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        assert ledger.peak_iops("e0") == pytest.approx(12 / BUCKET)
        assert ledger.peak_iops("e1") == 0.0

    def test_items_on(self):
        profiles = {
            "a": make_profile("a", IOPattern.P3, "e0"),
            "b": make_profile("b", IOPattern.P1, "e0"),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        assert ledger.items_on("e0") == ["a", "b"]


class TestAlgorithm2:
    def test_p3_in_cold_moves_to_hot(self):
        profiles = {
            "hot-res": make_profile(
                "hot-res", IOPattern.P3, "e0", size_bytes=GB, mean_iops=0.1
            ),
            "mover": make_profile(
                "mover", IOPattern.P3, "e2", size_bytes=GB, mean_iops=0.1
            ),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split(["e0"], ["e1", "e2", "e3"]), 1.0, 100 * GB
        )
        moves = {m.item_id: m.target_enclosure for m in plan}
        assert moves == {"mover": "e0"}

    def test_p3_already_hot_does_not_move(self):
        profiles = {
            "resident": make_profile("resident", IOPattern.P3, "e0"),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split(["e0"], ["e1", "e2", "e3"]), 1.0, 100 * GB
        )
        assert not plan

    def test_least_loaded_hot_enclosure_chosen(self):
        profiles = {
            "busy": make_profile("busy", IOPattern.P3, "e0", mean_iops=0.5),
            "calm": make_profile("calm", IOPattern.P3, "e1", mean_iops=0.01),
            "mover": make_profile("mover", IOPattern.P3, "e2", mean_iops=0.1),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split(["e0", "e1"], ["e2", "e3"]), 1.0, 100 * GB
        )
        assert plan[0].target_enclosure == "e1"

    def test_iops_overflow_raises(self):
        profiles = {
            "resident": make_profile("resident", IOPattern.P3, "e0", mean_iops=0.9),
            "mover": make_profile("mover", IOPattern.P3, "e1", mean_iops=0.5),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        with pytest.raises(HotSetTooSmall):
            plan_p3_consolidation(
                ledger, split(["e0"], ["e1", "e2", "e3"]), 1.0, 100 * GB
            )

    def test_empty_hot_set_with_p3_raises(self):
        profiles = {"p3": make_profile("p3", IOPattern.P3, "e0")}
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        with pytest.raises(HotSetTooSmall):
            plan_p3_consolidation(
                ledger, split([], ENCLOSURES), 1.0, 100 * GB
            )

    def test_no_p3_no_moves(self):
        profiles = {"p1": make_profile("p1", IOPattern.P1, "e1")}
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split([], ENCLOSURES), 1.0, 100 * GB
        )
        assert not plan

    def test_unmovable_item_reported_stuck(self):
        profiles = {
            "log": make_profile("log", IOPattern.P3, "e3", mean_iops=1.5),
            "resident": make_profile("resident", IOPattern.P3, "e0", mean_iops=0.1),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        stuck: set[str] = set()
        plan = plan_p3_consolidation(
            ledger,
            split(["e0"], ["e1", "e2", "e3"]),
            1.0,
            100 * GB,
            stuck_enclosures=stuck,
        )
        assert stuck == {"e3"}
        assert not plan  # log stays; resident already hot

    def test_size_overflow_triggers_evacuation(self):
        profiles = {
            "filler": make_profile(
                "filler", IOPattern.P1, "e0", size_bytes=8 * GB, mean_iops=0.01
            ),
            "resident": make_profile(
                "resident", IOPattern.P3, "e0", size_bytes=GB, mean_iops=0.1
            ),
            "mover": make_profile(
                "mover", IOPattern.P3, "e1", size_bytes=2 * GB, mean_iops=0.1
            ),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split(["e0"], ["e1", "e2", "e3"]), 1.0, 10 * GB
        )
        kinds = {(m.item_id, m.evacuation) for m in plan}
        assert ("filler", True) in kinds  # Algorithm 3 freed space
        assert ("mover", False) in kinds

    def test_hottest_per_byte_moves_first(self):
        profiles = {
            "dense": make_profile(
                "dense", IOPattern.P3, "e1", size_bytes=GB, mean_iops=0.2
            ),
            "sparse": make_profile(
                "sparse", IOPattern.P3, "e2", size_bytes=4 * GB, mean_iops=0.2
            ),
            "anchor": make_profile(
                "anchor", IOPattern.P3, "e0", size_bytes=GB, mean_iops=0.01
            ),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        plan = plan_p3_consolidation(
            ledger, split(["e0"], ["e1", "e2", "e3"]), 1.0, 100 * GB
        )
        assert plan[0].item_id == "dense"


class TestAlgorithm3:
    def test_evacuates_to_busiest_cold(self):
        profiles = {
            "p1": make_profile(
                "p1", IOPattern.P1, "e0", size_bytes=2 * GB, mean_iops=0.01,
                bucket_counts=(1,) * 10,
            ),
            "coldload": make_profile(
                "coldload", IOPattern.P1, "e2", size_bytes=GB,
                bucket_counts=(6,) * 10,
            ),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        moves = []
        freed = plan_evacuation(
            ledger, moves, "e0", GB, ["e1", "e2", "e3"], 1.0, 100 * GB
        )
        assert freed
        # e2 has the highest projected peak IOPS among cold enclosures.
        assert moves[0].target_enclosure == "e2"
        assert moves[0].evacuation

    def test_does_not_move_p3(self):
        profiles = {
            "p3": make_profile("p3", IOPattern.P3, "e0", size_bytes=2 * GB),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        moves = []
        freed = plan_evacuation(
            ledger, moves, "e0", GB, ["e1"], 1.0, 100 * GB
        )
        assert not freed
        assert not moves

    def test_no_cold_enclosures_fails(self):
        profiles = {
            "p1": make_profile("p1", IOPattern.P1, "e0", size_bytes=2 * GB),
        }
        ledger = EnclosureLedger(ENCLOSURES, make_table(profiles), BUCKET)
        assert not plan_evacuation(
            ledger, [], "e0", GB, [], 1.0, 100 * GB
        )


class TestDeterminePlacement:
    def test_grows_hot_set_until_feasible(self):
        # Four P3 items at 0.4 IOPS each: one hot enclosure overflows
        # (1.6 > 1.0), two suffice (0.8 each).
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P3, f"e{k}", size_bytes=GB, mean_iops=0.4,
                bucket_counts=(24,) * 10,
            )
            for k in range(4)
        }
        split_result, plan = determine_placement(
            make_table(profiles), ENCLOSURES, 1.0, 100 * GB, BUCKET
        )
        assert split_result.n_hot >= 2
        assert len(split_result.cold) <= 2
        # Every P3 item ends on a hot enclosure.
        targets = {m.item_id: m.target_enclosure for m in plan}
        for k in range(4):
            final = targets.get(f"i{k}", f"e{k}")
            assert final in split_result.hot

    def test_all_hot_when_everything_saturated(self):
        profiles = {
            f"i{k}": make_profile(
                f"i{k}", IOPattern.P3, f"e{k}", mean_iops=0.95,
                bucket_counts=(57,) * 10,
            )
            for k in range(4)
        }
        split_result, plan = determine_placement(
            make_table(profiles), ENCLOSURES, 1.0, 100 * GB, BUCKET
        )
        assert split_result.cold == ()
        assert not plan

    def test_no_p3_everything_cold(self):
        profiles = {
            "p1": make_profile("p1", IOPattern.P1, "e0"),
        }
        split_result, plan = determine_placement(
            make_table(profiles), ENCLOSURES, 1.0, 100 * GB, BUCKET
        )
        assert split_result.hot == ()
        assert not plan

    def test_stuck_enclosure_promoted_to_hot(self):
        profiles = {
            "log": make_profile(
                "log", IOPattern.P3, "e3", mean_iops=1.5,
                bucket_counts=(90,) * 10,
            ),
            "table": make_profile(
                "table", IOPattern.P3, "e0", size_bytes=5 * GB, mean_iops=0.1,
                bucket_counts=(6,) * 10,
            ),
        }
        split_result, _ = determine_placement(
            make_table(profiles), ENCLOSURES, 1.0, 100 * GB, BUCKET
        )
        assert "e3" in split_result.hot
        assert "e3" not in split_result.cold
