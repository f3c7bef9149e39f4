"""Logical I/O pattern classification (paper §II-C.2, §IV-B).

Each data item's window activity maps to exactly one of four patterns:

* **P0** — no I/O in the window (single Long Interval, no sequence);
* **P1** — has Long Interval(s) and sequence(s), reads are *more than*
  half of the sequence I/Os → preload candidate;
* **P2** — has Long Interval(s) and sequence(s), reads are at most half
  → write-delay candidate;
* **P3** — no Long Interval at all (one wall-to-wall I/O Sequence) → not
  suitable for power saving; lives on hot enclosures.

:func:`build_profiles` runs Step 1–3 of the paper's I/O-pattern
determination function over a whole monitoring window: split the logical
trace per data item, extract Long Intervals and I/O Sequences, classify,
and attach the per-item statistics (sizes, IOPS, time-bucketed rates)
that the hot/cold split and the placement algorithms consume.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import ValidationError
from repro.core.intervals import ItemActivity, extract_activity
from repro.trace.records import LogicalIORecord


@runtime_checkable
class SupportsProfileArrays(Protocol):
    """A window buffer that exposes its I/Os as parallel columns.

    Both :class:`repro.monitoring.application.WindowColumns` and
    :class:`repro.trace.columnar.ColumnarTrace` satisfy this; feeding
    columns lets :func:`build_profiles` skip per-record attribute access
    on the classification hot path.
    """

    def profile_arrays(
        self,
    ) -> tuple[Sequence[float], Sequence[str], Sequence[int], Sequence[bool]]:
        """Return the ``(timestamps, item ids, sizes, reads)`` columns."""
        ...


class IOPattern(enum.Enum):
    """The four logical I/O patterns."""

    P0 = "P0"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"

    @property
    def is_cold_friendly(self) -> bool:
        """Whether items of this pattern belong on cold enclosures."""
        return self is not IOPattern.P3


def classify(activity: ItemActivity) -> IOPattern:
    """Map one item's window activity to its logical I/O pattern."""
    if not activity.sequences:
        return IOPattern.P0
    if not activity.long_intervals:
        return IOPattern.P3
    reads = activity.read_count
    total = activity.io_count
    if 2 * reads > total:
        return IOPattern.P1
    return IOPattern.P2


@dataclass(frozen=True)
class ItemProfile:
    """One data item's classification plus placement-relevant statistics."""

    item_id: str
    pattern: IOPattern
    activity: ItemActivity
    size_bytes: int
    enclosure: str
    #: I/Os per second averaged over the window.
    mean_iops: float
    #: Peak I/Os per second over the IOPS buckets (paper's I_it input).
    peak_iops: float
    #: Per-bucket I/O counts, aligned to the window start.
    bucket_counts: tuple[int, ...]
    read_count: int
    write_count: int
    #: Bytes written in the window (sizing input for write-delay).
    write_bytes: int
    #: Bytes read in the window.
    read_bytes: int

    @property
    def io_count(self) -> int:
        """Number of I/Os in the profile (reads plus writes)."""
        return self.read_count + self.write_count

    @property
    def reads_per_byte(self) -> float:
        """Preload ranking key: read I/Os per data byte (paper §IV-F)."""
        if self.size_bytes <= 0:
            return 0.0
        return self.read_count / self.size_bytes


#: Bucket length used when computing peak IOPS (I_max).  Chosen close to
#: the break-even time so the peak reflects sustained, spin-up-relevant
#: load rather than instantaneous bursts.
DEFAULT_IOPS_BUCKET_SECONDS = 60.0


def build_profiles(
    records: Iterable[LogicalIORecord] | SupportsProfileArrays,
    window_start: float,
    window_end: float,
    break_even_time: float,
    item_sizes: Mapping[str, int],
    item_enclosures: Mapping[str, str],
    iops_bucket_seconds: float = DEFAULT_IOPS_BUCKET_SECONDS,
) -> dict[str, ItemProfile]:
    """Classify every known data item over one monitoring window.

    ``item_sizes`` / ``item_enclosures`` enumerate all *placed* items —
    items with no I/O in the window still get a profile (pattern P0), as
    the paper's Step 1 explicitly marks them.

    The window may arrive either as an iterable of records or as any
    :class:`SupportsProfileArrays` columnar buffer; the per-I/O
    accumulation is field-for-field identical, so both inputs produce
    the same profiles.
    """
    if window_end <= window_start:
        raise ValidationError("window must have positive length")
    if iops_bucket_seconds <= 0:
        raise ValidationError("iops_bucket_seconds must be positive")

    window = window_end - window_start
    bucket_count = max(1, math.ceil(window / iops_bucket_seconds))

    events: dict[str, list[tuple[float, bool]]] = defaultdict(list)
    buckets: dict[str, list[int]] = {}
    write_bytes: defaultdict[str, int] = defaultdict(int)
    read_bytes: defaultdict[str, int] = defaultdict(int)

    if isinstance(records, SupportsProfileArrays):
        timestamps, item_ids, io_sizes, io_reads = records.profile_arrays()
        for ts, item, size, is_read in zip(
            timestamps, item_ids, io_sizes, io_reads
        ):
            events[item].append((ts, is_read))
            if item not in buckets:
                buckets[item] = [0] * bucket_count
            index = min(
                bucket_count - 1,
                int((ts - window_start) / iops_bucket_seconds),
            )
            buckets[item][index] += 1
            if is_read:
                read_bytes[item] += size
            else:
                write_bytes[item] += size
    else:
        for rec in records:
            item = rec.item_id
            events[item].append((rec.timestamp, rec.is_read))
            if item not in buckets:
                buckets[item] = [0] * bucket_count
            index = min(
                bucket_count - 1,
                int((rec.timestamp - window_start) / iops_bucket_seconds),
            )
            buckets[item][index] += 1
            if rec.is_read:
                read_bytes[item] += rec.size
            else:
                write_bytes[item] += rec.size

    profiles: dict[str, ItemProfile] = {}
    for item_id, size in item_sizes.items():
        item_events = events.get(item_id, [])
        activity = extract_activity(
            item_id, item_events, window_start, window_end, break_even_time
        )
        pattern = classify(activity)
        bucket_counts = tuple(buckets.get(item_id, [0] * bucket_count))
        last_bucket_len = window - (bucket_count - 1) * iops_bucket_seconds
        peak = 0.0
        for i, count in enumerate(bucket_counts):
            length = (
                iops_bucket_seconds if i < bucket_count - 1 else last_bucket_len
            )
            if length > 0:
                peak = max(peak, count / length)
        profiles[item_id] = ItemProfile(
            item_id=item_id,
            pattern=pattern,
            activity=activity,
            size_bytes=size,
            enclosure=item_enclosures[item_id],
            mean_iops=activity.io_count / window,
            peak_iops=peak,
            bucket_counts=bucket_counts,
            read_count=activity.read_count,
            write_count=activity.write_count,
            write_bytes=write_bytes.get(item_id, 0),
            read_bytes=read_bytes.get(item_id, 0),
        )
    return profiles


def pattern_counts(profiles: Mapping[str, ItemProfile]) -> dict[IOPattern, int]:
    """How many items fell into each pattern (paper Fig 6's measurement)."""
    counts = {pattern: 0 for pattern in IOPattern}
    for profile in profiles.values():
        counts[profile.pattern] += 1
    return counts


def pattern_fractions(
    profiles: Mapping[str, ItemProfile],
) -> dict[IOPattern, float]:
    """Pattern mix as fractions of all items (Fig 6's y-axis)."""
    counts = pattern_counts(profiles)
    total = sum(counts.values())
    if total == 0:
        return {pattern: 0.0 for pattern in IOPattern}
    return {pattern: count / total for pattern, count in counts.items()}
