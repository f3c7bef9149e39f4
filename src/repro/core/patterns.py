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
that the hot/cold split and the placement algorithms consume.  The
result is one :class:`ProfileTable` of parallel columns, one row per
placed item; consumers read it by column.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.trace.columnar import FLAG_READ, ColumnarTrace
from repro.trace.records import LogicalIORecord


class IOPattern(enum.Enum):
    """The four logical I/O patterns."""

    P0 = "P0"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


#: Patterns in code order: a pattern code indexes this tuple.
PATTERNS: tuple[IOPattern, ...] = tuple(IOPattern)
P0_CODE = PATTERNS.index(IOPattern.P0)
P1_CODE = PATTERNS.index(IOPattern.P1)
P2_CODE = PATTERNS.index(IOPattern.P2)
P3_CODE = PATTERNS.index(IOPattern.P3)


def classify(
    sequence_counts: np.ndarray,
    long_counts: np.ndarray,
    read_counts: np.ndarray,
    io_counts: np.ndarray,
) -> np.ndarray:
    """Pattern codes (indexes into :data:`PATTERNS`) of count columns.

    The one pattern rule, applied to every item at once from its I/O
    Sequence, Long Interval, read and I/O counts: no sequence is P0, no
    Long Interval is P3, reads more than half of the I/Os is P1,
    anything else P2.
    """
    return np.where(
        sequence_counts == 0,
        P0_CODE,
        np.where(
            long_counts == 0,
            P3_CODE,
            np.where(2 * read_counts > io_counts, P1_CODE, P2_CODE),
        ),
    )


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Every placed item's classification and statistics, as columns.

    Row ``i`` of each per-item column describes ``item_ids[i]``; rows
    follow the ``item_sizes`` order :func:`build_profiles` was given.
    Long Intervals and I/O Sequences are flat columns in item order,
    then time order: item ``i`` owns entries ``bounds[i]:bounds[i + 1]``
    of its ``*_bounds`` column.
    """

    item_ids: tuple[str, ...]
    size_bytes: np.ndarray
    #: Distinct enclosure names; ``enclosure_codes`` indexes them.
    enclosure_names: tuple[str, ...]
    enclosure_codes: np.ndarray
    #: Indexes into :data:`PATTERNS`.
    pattern_codes: np.ndarray
    io_count: np.ndarray
    read_count: np.ndarray
    read_bytes: np.ndarray
    #: Bytes written in the window (sizing input for write-delay).
    write_bytes: np.ndarray
    #: I/Os per second averaged over the window.
    mean_iops: np.ndarray
    #: Peak I/Os per second over the IOPS buckets (paper's I_it input).
    peak_iops: np.ndarray
    #: Items x buckets I/O counts, aligned to the window start.
    bucket_counts: np.ndarray
    interval_starts: np.ndarray
    interval_ends: np.ndarray
    interval_bounds: np.ndarray
    sequence_starts: np.ndarray
    sequence_ends: np.ndarray
    sequence_reads: np.ndarray
    sequence_writes: np.ndarray
    sequence_bounds: np.ndarray
    #: Row of each item id.
    code_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = range(len(self.item_ids))
        object.__setattr__(self, "code_of", dict(zip(self.item_ids, rows)))

    def __len__(self) -> int:
        return len(self.item_ids)


#: Bucket length used when computing peak IOPS (I_max).  Chosen close to
#: the break-even time so the peak reflects sustained, spin-up-relevant
#: load rather than instantaneous bursts.
DEFAULT_IOPS_BUCKET_SECONDS = 60.0


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Offsets of consecutive runs of ``counts`` entries, plus the end."""
    bounds = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _window_table(
    trace: ColumnarTrace,
    item_sizes: Mapping[str, int],
    item_enclosures: Mapping[str, str],
    window_start: float,
    window_end: float,
    break_even_time: float,
    bucket_seconds: float,
    bucket_lengths: list[float],
) -> ProfileTable:
    """The window's profile table, from one array pass over its columns.

    No Python code runs per I/O.  Window I/Os of items missing from
    ``item_sizes`` are dropped.
    """
    # Item codes follow ``item_sizes`` order, looked up once per entry
    # of the trace's item table.  Unknown items share the largest code,
    # so they sort last and are cut off; the stable sort keeps each
    # item's I/Os in their order.
    item_ids = tuple(item_sizes)
    known = len(item_ids)
    code_of = dict(zip(item_ids, range(known)))
    code_table = np.array(
        [code_of.get(item, known) for item in trace.items], dtype=np.intp
    )
    codes = code_table[np.frombuffer(trace.item_index, dtype=np.uint32)]
    order = np.argsort(codes, kind="stable")[: np.count_nonzero(codes < known)]
    n = len(order)
    codes = codes[order]
    ts = np.frombuffer(trace.timestamps, dtype=np.float64)[order]
    sizes = np.frombuffer(trace.sizes, dtype=np.int64)[order]
    reads = (np.frombuffer(trace.flags, dtype=np.uint8)[order] & FLAG_READ) != 0

    first = np.ones(n, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    previous = np.empty(n)
    previous[1:] = ts[:-1]
    previous[first] = window_start
    # Ordering is checked before bucket indexing: an I/O before the
    # window start would give a negative bucket index.
    disordered = ts < previous
    if disordered.any():
        bad = int(disordered.argmax())
        item_id = item_ids[int(codes[bad])]
        last_time = window_start if first[bad] else float(ts[bad - 1])
        raise ValidationError(
            f"events of item {item_id!r} are not time-ordered: "
            f"{float(ts[bad])} after {last_time}"
        )

    # Per-item totals, first for the items with window I/O (``active``,
    # in code order), then scattered into rows of every placed item.
    item_at = np.flatnonzero(first)
    active = codes[item_at]
    item_ios = np.diff(item_at, append=n)
    item_last = item_at + item_ios - 1
    read_ones = reads.astype(np.int64)
    io_count = np.zeros(known, dtype=np.int64)
    io_count[active] = item_ios
    read_count = np.zeros(known, dtype=np.int64)
    read_count[active] = np.add.reduceat(read_ones, item_at)
    # Byte sums are exact in int64 up to 2**63 bytes per item and window.
    read_bytes = np.zeros(known, dtype=np.int64)
    read_bytes[active] = np.add.reduceat(np.where(reads, sizes, 0), item_at)
    write_bytes = np.zeros(known, dtype=np.int64)
    write_bytes[active] = np.add.reduceat(np.where(reads, 0, sizes), item_at)

    # I/O Sequences start at an item's first I/O and after each gap
    # longer than the break-even time.
    is_long = ts - previous > break_even_time
    seq_at = np.flatnonzero(first | is_long)
    seq_ios = np.diff(seq_at, append=n)
    seq_last = seq_at + seq_ios - 1
    seq_reads = np.add.reduceat(read_ones, seq_at)
    seq_counts = np.zeros(known, dtype=np.intp)
    seq_counts[active] = np.diff(
        np.searchsorted(seq_at, item_at), append=len(seq_at)
    )

    # Long Intervals: the long gap before an I/O (key 2i), then the long
    # gap after an item's last I/O (key 2i + 1), merged in time order.
    gap_at = np.flatnonzero(is_long)
    tail_at = item_last[window_end - ts[item_last] > break_even_time]
    keys = np.concatenate((2 * gap_at, 2 * tail_at + 1))
    by_key = np.argsort(keys, kind="stable")
    # An item with no I/O has one Long Interval over the whole window:
    # every slot starts as that interval, and active items' slots are
    # overwritten with their own.
    active_first = np.searchsorted(keys[by_key], 2 * item_at)
    active_counts = np.diff(active_first, append=len(keys))
    interval_counts = np.ones(known, dtype=np.intp)
    interval_counts[active] = active_counts
    interval_bounds = _bounds(interval_counts)
    slots = np.arange(len(keys)) + np.repeat(
        interval_bounds[active] - active_first, active_counts
    )
    interval_starts = np.full(interval_bounds[-1], window_start, np.float64)
    interval_starts[slots] = np.concatenate(
        (previous[gap_at], ts[tail_at])
    )[by_key]
    interval_ends = np.full(interval_bounds[-1], window_end, np.float64)
    interval_ends[slots] = np.concatenate(
        (ts[gap_at], np.full(len(tail_at), window_end))
    )[by_key]

    lengths = np.array(bucket_lengths)
    bucket_count = len(lengths)
    bucket_index = np.minimum(
        (ts - window_start) / bucket_seconds, bucket_count - 1
    ).astype(np.intp)
    item_row = np.cumsum(first) - 1
    bucket_counts = np.zeros((known, bucket_count), dtype=np.int64)
    bucket_counts[active] = np.bincount(
        item_row * bucket_count + bucket_index,
        minlength=len(item_at) * bucket_count,
    ).reshape(len(item_at), bucket_count)
    # A last bucket of length <= 0 (ceil rounding) holds no rate.
    usable = lengths > 0
    peak_iops = (bucket_counts[:, usable] / lengths[usable]).max(axis=1)

    names: dict[str, int] = {}
    enclosure_codes = np.array(
        [
            names.setdefault(item_enclosures[item], len(names))
            for item in item_ids
        ],
        dtype=np.intp,
    )
    return ProfileTable(
        item_ids=item_ids,
        size_bytes=np.fromiter(item_sizes.values(), np.int64, count=known),
        enclosure_names=tuple(names),
        enclosure_codes=enclosure_codes,
        pattern_codes=classify(
            seq_counts, interval_counts, read_count, io_count
        ),
        io_count=io_count,
        read_count=read_count,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        mean_iops=io_count / (window_end - window_start),
        peak_iops=peak_iops,
        bucket_counts=bucket_counts,
        interval_starts=interval_starts,
        interval_ends=interval_ends,
        interval_bounds=interval_bounds,
        sequence_starts=ts[seq_at],
        sequence_ends=ts[seq_last],
        sequence_reads=seq_reads,
        sequence_writes=seq_ios - seq_reads,
        sequence_bounds=_bounds(seq_counts),
    )


def build_profiles(
    records: ColumnarTrace | Iterable[LogicalIORecord],
    window_start: float,
    window_end: float,
    break_even_time: float,
    item_sizes: Mapping[str, int],
    item_enclosures: Mapping[str, str],
    iops_bucket_seconds: float = DEFAULT_IOPS_BUCKET_SECONDS,
) -> ProfileTable:
    """Classify every known data item over one monitoring window.

    ``item_sizes`` / ``item_enclosures`` enumerate all *placed* items —
    items with no I/O in the window still get a row (pattern P0, one
    Long Interval over the whole window), as the paper's Step 1
    explicitly marks them.  Window I/Os of items not in ``item_sizes``
    are ignored.

    The window arrives as a :class:`~repro.trace.columnar.ColumnarTrace`
    (such as the application monitor's window, a slice of the replayed
    trace); any other record iterable is packed into one first, so both
    inputs produce the same table.

    The per-I/O work is one array pass: a stable sort by item keeps each
    item's time order, and gaps, Long Intervals, sequence boundaries,
    counts, byte sums and bucket counts are vector operations.  Each row
    equals, value for value, what
    :func:`~repro.core.intervals.extract_activity` and :func:`classify`
    give for that item's events.
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
    return _window_table(
        records,
        item_sizes,
        item_enclosures,
        window_start,
        window_end,
        break_even_time,
        iops_bucket_seconds,
        bucket_lengths,
    )


def pattern_counts(profiles: ProfileTable) -> dict[IOPattern, int]:
    """How many items fell into each pattern (paper Fig 6's measurement)."""
    counts = np.bincount(profiles.pattern_codes, minlength=len(PATTERNS))
    return dict(zip(PATTERNS, counts.tolist()))


def pattern_fractions(profiles: ProfileTable) -> dict[IOPattern, float]:
    """Pattern mix as fractions of all items (Fig 6's y-axis)."""
    counts = pattern_counts(profiles)
    total = sum(counts.values())
    if total == 0:
        return {pattern: 0.0 for pattern in IOPattern}
    return {pattern: count / total for pattern, count in counts.items()}
