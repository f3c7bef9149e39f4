"""Write-delay and preload selection (paper §IV-E, §IV-F).

* **Write delay** — all P2 data items on cold enclosures are selected;
  if the write-delay cache still has headroom, P1 items with the most
  writes are added (the paper: "some of the P1 data items that have more
  write I/Os than others in cold disk enclosures are selected").  Each
  item's cache footprint is estimated as its dirty working set: the
  bytes written during the last window, capped by the item size.
* **Preload** — P1 items on cold enclosures, ranked by read I/Os per
  byte descending, are selected until the preload partition is full.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.core.patterns import P0_CODE, P1_CODE, P2_CODE, ProfileTable


def estimate_dirty_bytes(profiles: ProfileTable) -> np.ndarray:
    """Expected dirty footprint of each item per window, if write-delayed."""
    return np.minimum(profiles.size_bytes, profiles.write_bytes)


def _on_cold(
    profiles: ProfileTable,
    rows: np.ndarray,
    cold: set[str],
    item_locations: Mapping[str, str],
) -> list[int]:
    """The ``rows`` whose items now sit on a cold enclosure."""
    ids = profiles.item_ids
    return [row for row in rows.tolist() if item_locations[ids[row]] in cold]


def select_write_delay_items(
    profiles: ProfileTable,
    cold_enclosures: Sequence[str],
    item_locations: Mapping[str, str],
    cache_bytes: int,
    min_p1_write_ios: int = 4,
) -> set[str]:
    """Choose the data items whose writes the cache will absorb.

    P2 items are all selected (budget permitting).  P1 items qualify
    only with at least ``min_p1_write_ios`` writes in the window — the
    paper adds "P1 data items that have *more write I/Os than others*";
    selecting every P1 item with a single stray write would churn the
    selection and wake its cold enclosure with a deselection flush every
    period.
    """
    if cache_bytes < 0:
        raise ValidationError("cache_bytes must be non-negative")
    cold = set(cold_enclosures)
    ids = profiles.item_ids
    patterns = profiles.pattern_codes
    write_counts = profiles.io_count - profiles.read_count
    footprints = estimate_dirty_bytes(profiles)
    selected: set[str] = set()
    budget = cache_bytes

    def ranked(mask: np.ndarray) -> list[int]:
        rows = _on_cold(profiles, np.flatnonzero(mask), cold, item_locations)
        return sorted(
            rows, key=lambda row: (-int(write_counts[row]), ids[row])
        )

    for row in ranked(patterns == P2_CODE):
        footprint = int(footprints[row])
        if footprint <= budget:
            selected.add(ids[row])
            budget -= footprint

    p1 = (patterns == P1_CODE) & (write_counts >= min_p1_write_ios)
    for row in ranked(p1):
        footprint = int(footprints[row])
        if footprint == 0:
            continue
        if footprint <= budget:
            selected.add(ids[row])
            budget -= footprint
    return selected


def select_preload_items(
    profiles: ProfileTable,
    cold_enclosures: Sequence[str],
    item_locations: Mapping[str, str],
    cache_bytes: int,
    already_pinned: set[str] | None = None,
) -> list[str]:
    """Choose the P1 items to pin in the preload partition.

    Items already pinned stay selected for free when still eligible
    (paper §V-C keeps them), and their size counts against the budget.
    Returns the selection in ranking order.
    """
    if cache_bytes < 0:
        raise ValidationError("cache_bytes must be non-negative")
    cold = set(cold_enclosures)
    pinned = already_pinned or set()
    ids = profiles.item_ids
    sizes = profiles.size_bytes
    reads = profiles.read_count
    # Already-pinned items stay candidates while P0 too: a pinned item
    # with no I/O this window is still the same read-mostly item, and
    # paper §V-C explicitly "keeps data items that are already preloaded
    # into the cache".  Dropping it would force a fresh preload burst —
    # and a cold-enclosure wake-up — when it turns P1 again.
    eligible = profiles.pattern_codes == P1_CODE
    pinned_rows = [
        profiles.code_of[item] for item in pinned if item in profiles.code_of
    ]
    eligible[pinned_rows] |= profiles.pattern_codes[pinned_rows] == P0_CODE

    def reads_per_byte(row: int) -> float:
        """Preload ranking key: read I/Os per data byte (paper §IV-F)."""
        size = int(sizes[row])
        return int(reads[row]) / size if size > 0 else 0.0

    candidates = sorted(
        _on_cold(profiles, np.flatnonzero(eligible), cold, item_locations),
        key=lambda row: (-reads_per_byte(row), ids[row]),
    )
    selected: list[str] = []
    budget = cache_bytes
    # Keep still-eligible pinned items first: re-reading them is free.
    for row in candidates:
        size = int(sizes[row])
        if ids[row] in pinned and size <= budget:
            selected.append(ids[row])
            budget -= size
    for row in candidates:
        if ids[row] in pinned:
            continue
        size = int(sizes[row])
        if size <= budget:
            selected.append(ids[row])
            budget -= size
    return selected
