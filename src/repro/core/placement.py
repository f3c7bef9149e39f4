"""Data-placement planning: paper Algorithms 2 and 3 (§IV-D).

Algorithm 2 consolidates P3 data items from cold enclosures onto hot
ones, always offering an item to the hot enclosure with the lowest
projected average IOPS (load balancing) subject to two constraints:
the enclosure's served-IOPS capacity ``O`` and its size ``S``.  When no
hot enclosure has room, Algorithm 3 evacuates P0/P1/P2 items from hot
enclosures to cold ones (preferring the *busiest* cold enclosure as the
sink, so the quietest cold enclosures stay quiet).  When the hot set
simply cannot absorb the P3 load, ``N_hot`` is increased and the whole
planning retried — :func:`determine_placement` owns that retry loop.

The planner works on *projected* state (an :class:`EnclosureLedger`);
nothing moves until the runtime method applies the returned
:class:`~repro.actions.records.MigrateItem` actions.  Moves are returned
in the order the algorithms decide them; evacuations are marked
``evacuation=True`` because they execute before consolidation moves
(§V-A).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.actions.records import MigrateItem
from repro.core.hotcold import HotColdSplit, choose_hot_cold, required_hot_count
from repro.core.patterns import P3_CODE, ProfileTable
from repro.errors import PlacementError, ValidationError


class HotSetTooSmall(PlacementError):
    """Algorithm 2 found the hot enclosures cannot serve the P3 IOPS.

    ``item_id`` names the mover that overflowed (when one did): the
    caller can pin that item in place instead of growing the hot set —
    the right response when a single near-saturating item (a log device
    running just under ``O``) is the whole problem.
    """

    def __init__(self, message: str, item_id: str | None = None) -> None:
        super().__init__(message)
        self.item_id = item_id


class EnclosureLedger:
    """Projected per-enclosure usage while the planner assigns items.

    The tallies start from the table's placement.  ``mean_iops`` is a
    float left fold in item order, then one ``-=`` and one ``+=`` per
    move; bytes and bucket counts are exact integers.
    """

    def __init__(
        self,
        enclosure_names: Sequence[str],
        profiles: ProfileTable,
        bucket_seconds: float,
    ) -> None:
        if bucket_seconds <= 0:
            raise ValidationError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self.profiles = profiles
        self._names = tuple(enclosure_names)
        self._index = {name: row for row, name in enumerate(self._names)}
        enclosures = len(self._names)
        ledger_row = np.array(
            [self._index[name] for name in profiles.enclosure_names],
            dtype=np.intp,
        )
        #: Ledger row of the enclosure each item sits on.
        self._location = ledger_row[profiles.enclosure_codes]
        used = np.zeros(enclosures, dtype=np.int64)
        np.add.at(used, self._location, profiles.size_bytes)
        self._used_bytes: list[int] = used.tolist()
        self._mean_iops = [0.0] * enclosures
        for row, iops in zip(
            self._location.tolist(), profiles.mean_iops.tolist()
        ):
            self._mean_iops[row] += iops
        buckets = profiles.bucket_counts.shape[1] if len(profiles) else 1
        self._bucket_counts = np.zeros((enclosures, buckets), dtype=np.int64)
        np.add.at(self._bucket_counts, self._location, profiles.bucket_counts)

    def move(self, item_id: str, target: str) -> None:
        """Reassign an item to another enclosure, updating both tallies."""
        code = self.profiles.code_of[item_id]
        source = int(self._location[code])
        destination = self._index[target]
        size = int(self.profiles.size_bytes[code])
        iops = float(self.profiles.mean_iops[code])
        counts = self.profiles.bucket_counts[code]
        self._used_bytes[source] -= size
        self._mean_iops[source] -= iops
        self._bucket_counts[source] -= counts
        self._used_bytes[destination] += size
        self._mean_iops[destination] += iops
        self._bucket_counts[destination] += counts
        self._location[code] = destination

    def location(self, item_id: str) -> str:
        """Enclosure currently holding the item."""
        return self._names[self._location[self.profiles.code_of[item_id]]]

    def used_bytes(self, enclosure: str) -> int:
        """Bytes of item data placed on the enclosure."""
        return self._used_bytes[self._index[enclosure]]

    def mean_iops(self, enclosure: str) -> float:
        """Mean IOPS aggregated over items placed on the enclosure."""
        return self._mean_iops[self._index[enclosure]]

    def peak_iops(self, enclosure: str) -> float:
        """Peak bucketed IOPS among items placed on the enclosure."""
        peak = int(self._bucket_counts[self._index[enclosure]].max())
        return peak / self.bucket_seconds

    def codes_on(self, enclosures: Sequence[str]) -> np.ndarray:
        """Item rows placed on any of ``enclosures``, in item order."""
        rows = [self._index[name] for name in enclosures]
        return np.flatnonzero(np.isin(self._location, rows))

    def items_on(self, enclosure: str) -> list[str]:
        """Sorted ids of the items placed on the enclosure."""
        ids = self.profiles.item_ids
        codes = self.codes_on([enclosure]).tolist()
        return sorted(ids[code] for code in codes)


def plan_evacuation(
    ledger: EnclosureLedger,
    moves: list[MigrateItem],
    hot_enclosure: str,
    needed_bytes: int,
    cold: Sequence[str],
    max_enclosure_iops: float,
    enclosure_size_bytes: int,
) -> bool:
    """Paper Algorithm 3: free ``needed_bytes`` on one hot enclosure.

    Moves P0/P1/P2 items from the hot enclosure to cold enclosures,
    preferring the cold enclosure whose projected peak IOPS is largest
    (conditions: the item fits, and peak + item IOPS stays under ``O``).
    Appends each evacuation to ``moves``; returns True when enough space
    was freed.
    """
    if not cold:
        return False
    freed = 0
    table = ledger.profiles
    on_hot = ledger.codes_on([hot_enclosure])
    movable = on_hot[table.pattern_codes[on_hot] != P3_CODE].tolist()
    ids = table.item_ids
    sizes = table.size_bytes
    # Largest items first frees space with the fewest moves.
    movable.sort(key=lambda code: (-int(sizes[code]), ids[code]))
    for code in movable:
        if freed >= needed_bytes:
            break
        size = int(sizes[code])
        peak = float(table.peak_iops[code])
        # Cold enclosures by descending projected peak IOPS (I_max).
        targets = sorted(
            cold, key=lambda name: (-ledger.peak_iops(name), name)
        )
        for target in targets:
            fits = size <= enclosure_size_bytes - ledger.used_bytes(target)
            load_ok = ledger.peak_iops(target) + peak < max_enclosure_iops
            if fits and load_ok:
                ledger.move(ids[code], target)
                moves.append(MigrateItem(ids[code], target, evacuation=True))
                freed += size
                break
    return freed >= needed_bytes


def plan_p3_consolidation(
    ledger: EnclosureLedger,
    split: HotColdSplit,
    max_enclosure_iops: float,
    enclosure_size_bytes: int,
    stuck_enclosures: set[str] | None = None,
    excluded_items: set[str] | None = None,
) -> list[MigrateItem]:
    """Paper Algorithm 2: move P3 items from cold to hot enclosures.

    Returns the planned moves in decision order, Algorithm 3's
    evacuations included.

    ``excluded_items`` are movers pinned in place by the caller (their
    enclosures must then be treated as hot).

    Raises :class:`HotSetTooSmall` when the hot set cannot serve the P3
    IOPS — the caller then increases ``N_hot`` and retries.

    A P3 item whose own IOPS reaches the enclosure capacity ``O`` can
    never be consolidated anywhere (a dedicated log device is the
    classic case: "Put log to 1 Storage Device", Table I).  Such items
    stay put and their current enclosure is reported through
    ``stuck_enclosures`` so the caller keeps it powered as hot.
    """
    moves: list[MigrateItem] = []
    table = ledger.profiles
    p3 = table.pattern_codes == P3_CODE
    if not split.hot:
        if p3.any():
            raise HotSetTooSmall("P3 items exist but the hot set is empty")
        return moves

    excluded = excluded_items or set()
    ids = table.item_ids
    sizes = table.size_bytes.tolist()
    mean_iops = table.mean_iops.tolist()
    on_cold = ledger.codes_on(split.cold)
    movers = []
    for code in on_cold[p3[on_cold]].tolist():
        if mean_iops[code] >= max_enclosure_iops or ids[code] in excluded:
            # Unmovable (saturates any enclosure by itself) or pinned by
            # the caller after a previous overflow.
            if stuck_enclosures is not None:
                stuck_enclosures.add(ledger.location(ids[code]))
            continue
        movers.append(code)
    # Paper: sort M by IOPS/size descending (hottest bytes first).
    movers.sort(
        key=lambda code: (
            -(mean_iops[code] / sizes[code] if sizes[code] else 0.0),
            ids[code],
        )
    )
    for code in movers:
        item_id = ids[code]
        placed = False
        # Hot enclosures by ascending projected average IOPS.
        candidates = sorted(
            split.hot, key=lambda name: (ledger.mean_iops(name), name)
        )
        for target in candidates:
            if (
                mean_iops[code] + ledger.mean_iops(target)
                >= max_enclosure_iops
            ):
                # Even the least-loaded hot enclosure overflows on IOPS:
                # the hot set is too small (paper: "increase N_hot").
                raise HotSetTooSmall(
                    f"P3 item {item_id!r} overloads hot enclosure "
                    f"{target!r}",
                    item_id=item_id,
                )
            if sizes[code] + ledger.used_bytes(target) <= enclosure_size_bytes:
                ledger.move(item_id, target)
                moves.append(MigrateItem(item_id, target))
                placed = True
                break
            # Size overflow: try evacuating P0/P1/P2 from this hot
            # enclosure (Algorithm 3), then place here.
            needed = (
                sizes[code] + ledger.used_bytes(target) - enclosure_size_bytes
            )
            if plan_evacuation(
                ledger,
                moves,
                target,
                needed,
                split.cold,
                max_enclosure_iops,
                enclosure_size_bytes,
            ):
                ledger.move(item_id, target)
                moves.append(MigrateItem(item_id, target))
                placed = True
                break
        if not placed:
            raise HotSetTooSmall(
                f"no hot enclosure can hold P3 item {item_id!r}"
            )
    return moves


def determine_placement(
    profiles: ProfileTable,
    enclosure_names: Sequence[str],
    max_enclosure_iops: float,
    enclosure_size_bytes: int,
    bucket_seconds: float,
    preferred_hot: set[str] | None = None,
) -> tuple[HotColdSplit, list[MigrateItem]]:
    """Hot/cold split plus planned moves, with the N_hot retry loop.

    Starts from the §IV-C lower bound on ``N_hot`` and grows it while
    Algorithm 2 reports the hot set too small.  With every enclosure hot
    there is nothing left to plan (and nothing to power off) — the paper
    accepts that outcome, so this function never raises for feasibility.
    """
    n_hot_min, i_max = required_hot_count(
        profiles, max_enclosure_iops, enclosure_size_bytes, bucket_seconds
    )
    total = len(enclosure_names)
    for n_hot in range(min(n_hot_min, total), total + 1):
        split = choose_hot_cold(
            profiles, enclosure_names, n_hot, i_max, preferred_hot
        )
        excluded: set[str] = set()
        while True:
            ledger = EnclosureLedger(
                enclosure_names, profiles, bucket_seconds
            )
            stuck: set[str] = set()
            try:
                moves = plan_p3_consolidation(
                    ledger,
                    split,
                    max_enclosure_iops,
                    enclosure_size_bytes,
                    stuck_enclosures=stuck,
                    excluded_items=excluded,
                )
            except HotSetTooSmall as error:
                if (
                    error.item_id is not None
                    and error.item_id not in excluded
                    and len(excluded) < len(profiles)
                ):
                    # One near-saturating mover is the blocker: pin it
                    # in place (its enclosure becomes hot) and retry at
                    # the same N_hot instead of escalating to all-hot.
                    excluded.add(error.item_id)
                    continue
                break  # genuinely under-provisioned: grow N_hot
            if stuck - set(split.hot):
                # Enclosures pinned by unmovable P3 items count as hot.
                hot = tuple(sorted(set(split.hot) | stuck))
                cold = tuple(n for n in split.cold if n not in stuck)
                split = HotColdSplit(
                    hot=hot, cold=cold, i_max=split.i_max, n_hot=len(hot)
                )
            return split, moves
    # Everything hot: keep data where it is.
    split = choose_hot_cold(profiles, enclosure_names, total, i_max)
    return split, []
