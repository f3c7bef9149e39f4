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
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, TypeVar

import numpy as np

from repro.errors import ValidationError
from repro.core.intervals import Interval, IOSequence, ItemActivity
from repro.trace.columnar import FLAG_READ, ColumnarTrace
from repro.trace.records import LogicalIORecord

_T = TypeVar("_T")


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


class _ItemWindow(NamedTuple):
    """One item's window totals, as Python scalars."""

    long_intervals: tuple[Interval, ...]
    sequences: tuple[IOSequence, ...]
    io_count: int
    read_count: int
    read_bytes: int
    write_bytes: int
    bucket_counts: tuple[int, ...]
    peak_iops: float


def _slices(values: list[_T], bounds: list[int]) -> list[tuple[_T, ...]]:
    """``values`` cut at consecutive ``bounds``, one tuple per cut."""
    return [tuple(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def _item_windows(
    trace: ColumnarTrace,
    item_sizes: Mapping[str, int],
    window_start: float,
    window_end: float,
    break_even_time: float,
    bucket_seconds: float,
    bucket_lengths: list[float],
) -> dict[int, _ItemWindow]:
    """Totals of every item with window I/O, keyed by its ``item_sizes`` index.

    One array pass over the window's columns; no Python code runs per
    I/O.  Items missing from ``item_sizes`` are dropped.
    """
    # Item codes follow ``item_sizes`` order, looked up once per entry
    # of the trace's item table.  Unknown items share the largest code,
    # so they sort last and are cut off; the stable sort keeps each
    # item's I/Os in their order.
    known = len(item_sizes)
    code_of = dict(zip(item_sizes, range(known)))
    table = np.array(
        [code_of.get(item, known) for item in trace.items], dtype=np.intp
    )
    codes = table[np.frombuffer(trace.item_index, dtype=np.uint32)]
    order = np.argsort(codes, kind="stable")[: np.count_nonzero(codes < known)]
    n = len(order)
    if not n:
        return {}
    codes = codes[order]
    ts = np.frombuffer(trace.timestamps, dtype=np.float64)[order]
    sizes = np.frombuffer(trace.sizes, dtype=np.int64)[order]
    reads = (np.frombuffer(trace.flags, dtype=np.uint8)[order] & FLAG_READ) != 0

    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    previous = np.empty(n)
    previous[1:] = ts[:-1]
    previous[first] = window_start
    # Ordering is checked before bucket indexing: an I/O before the
    # window start would give a negative bucket index.
    disordered = ts < previous
    if disordered.any():
        bad = int(disordered.argmax())
        item_id = list(item_sizes)[int(codes[bad])]
        last_time = window_start if first[bad] else float(ts[bad - 1])
        raise ValidationError(
            f"events of item {item_id!r} are not time-ordered: "
            f"{float(ts[bad])} after {last_time}"
        )

    item_at = np.flatnonzero(first)
    item_ios = np.diff(item_at, append=n)
    item_last = item_at + item_ios - 1
    read_ones = reads.astype(np.int64)

    # I/O Sequences start at an item's first I/O and after each gap
    # longer than the break-even time.
    is_long = ts - previous > break_even_time
    seq_at = np.flatnonzero(first | is_long)
    seq_ios = np.diff(seq_at, append=n)
    seq_reads = np.add.reduceat(read_ones, seq_at)
    sequences = list(
        map(
            IOSequence,
            ts[seq_at].tolist(),
            ts[seq_at + seq_ios - 1].tolist(),
            seq_reads.tolist(),
            (seq_ios - seq_reads).tolist(),
        )
    )
    seq_bounds = np.searchsorted(seq_at, item_at).tolist()
    seq_bounds.append(len(seq_at))

    # Long Intervals: the long gap before an I/O (key 2i), then the long
    # gap after an item's last I/O (key 2i + 1), merged in time order.
    gap_at = np.flatnonzero(is_long)
    tail_at = item_last[window_end - ts[item_last] > break_even_time]
    keys = np.concatenate((2 * gap_at, 2 * tail_at + 1))
    by_key = np.argsort(keys, kind="stable")
    starts = np.concatenate((previous[gap_at], ts[tail_at]))[by_key]
    ends = np.concatenate((ts[gap_at], np.full(len(tail_at), window_end)))[by_key]
    intervals = list(map(Interval, starts.tolist(), ends.tolist()))
    interval_bounds = np.searchsorted(keys[by_key], 2 * item_at).tolist()
    interval_bounds.append(len(keys))

    lengths = np.array(bucket_lengths)
    bucket_count = len(lengths)
    bucket_index = np.minimum(
        (ts - window_start) / bucket_seconds, bucket_count - 1
    ).astype(np.intp)
    item_row = np.cumsum(first) - 1
    counts = np.bincount(
        item_row * bucket_count + bucket_index,
        minlength=len(item_at) * bucket_count,
    ).reshape(len(item_at), bucket_count)
    # A last bucket of length <= 0 (ceil rounding) holds no rate.
    usable = lengths > 0
    peaks = (counts[:, usable] / lengths[usable]).max(axis=1)

    # Byte sums are exact in int64 up to 2**63 bytes per item and window.
    return dict(
        zip(
            codes[item_at].tolist(),
            map(
                _ItemWindow,
                _slices(intervals, interval_bounds),
                _slices(sequences, seq_bounds),
                item_ios.tolist(),
                np.add.reduceat(read_ones, item_at).tolist(),
                np.add.reduceat(np.where(reads, sizes, 0), item_at).tolist(),
                np.add.reduceat(np.where(reads, 0, sizes), item_at).tolist(),
                map(tuple, counts.tolist()),
                peaks.tolist(),
            ),
        )
    )


def build_profiles(
    records: ColumnarTrace | Iterable[LogicalIORecord],
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
    the paper's Step 1 explicitly marks them.  Window I/Os of items not
    in ``item_sizes`` are ignored.

    The window arrives as a :class:`~repro.trace.columnar.ColumnarTrace`
    (such as the application monitor's window, a slice of the replayed
    trace); any other record iterable is packed into one first, so both
    inputs produce the same profiles.

    The per-I/O work is one array pass: a stable sort by item keeps each
    item's time order, and gaps, Long Intervals, sequence boundaries,
    counts, byte sums and bucket counts are vector operations.  Each
    profile equals, field for field and as Python scalars, the one
    :func:`~repro.core.intervals.extract_activity` and :func:`classify`
    give for that item's events; profiles come in ``item_sizes`` order.
    """
    if window_end <= window_start:
        raise ValidationError("window must have positive length")
    if iops_bucket_seconds <= 0:
        raise ValidationError("iops_bucket_seconds must be positive")
    if item_sizes and break_even_time <= 0:
        raise ValidationError("break_even_time must be positive")

    window = window_end - window_start
    bucket_count = max(1, math.ceil(window / iops_bucket_seconds))
    bucket_lengths = [iops_bucket_seconds] * (bucket_count - 1)
    bucket_lengths.append(window - (bucket_count - 1) * iops_bucket_seconds)
    if not isinstance(records, ColumnarTrace):
        records = ColumnarTrace.from_records(records)
    windows = _item_windows(
        records,
        item_sizes,
        window_start,
        window_end,
        break_even_time,
        iops_bucket_seconds,
        bucket_lengths,
    )
    # An item with no I/O has one Long Interval over the whole window.
    idle = _ItemWindow(
        long_intervals=(Interval(window_start, window_end),),
        sequences=(),
        io_count=0,
        read_count=0,
        read_bytes=0,
        write_bytes=0,
        bucket_counts=(0,) * bucket_count,
        peak_iops=0.0,
    )

    profiles: dict[str, ItemProfile] = {}
    for code, (item_id, size) in enumerate(item_sizes.items()):
        totals = windows.get(code, idle)
        activity = ItemActivity(
            item_id,
            window_start,
            window_end,
            totals.long_intervals,
            totals.sequences,
        )
        profiles[item_id] = ItemProfile(
            item_id=item_id,
            pattern=classify(activity),
            activity=activity,
            size_bytes=size,
            enclosure=item_enclosures[item_id],
            mean_iops=totals.io_count / window,
            peak_iops=totals.peak_iops,
            bucket_counts=totals.bucket_counts,
            read_count=totals.read_count,
            write_count=totals.io_count - totals.read_count,
            write_bytes=totals.write_bytes,
            read_bytes=totals.read_bytes,
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
