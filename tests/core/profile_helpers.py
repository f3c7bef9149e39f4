"""Helpers for building synthetic profile tables in core tests.

A test describes its items as :class:`ProfileRow` values and turns them
into the :class:`~repro.core.patterns.ProfileTable` the planners read
with :func:`make_table`; :func:`table_rows` reads a table back into
rows of Python scalars.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.intervals import ItemActivity
from repro.core.patterns import PATTERNS, IOPattern, ProfileTable, classify

WINDOW = 600.0
BUCKET = 60.0


class ProfileRow(NamedTuple):
    """One item's row of a profile table, as Python scalars."""

    item_id: str
    pattern: IOPattern
    enclosure: str
    size_bytes: int
    mean_iops: float
    peak_iops: float
    bucket_counts: tuple[int, ...]
    io_count: int
    read_count: int
    read_bytes: int
    write_bytes: int
    #: ``(start, end)`` of each Long Interval, in time order.
    long_intervals: tuple[tuple[float, float], ...]
    #: ``(start, end, reads, writes)`` of each I/O Sequence.
    sequences: tuple[tuple[float, float, int, int], ...]


def activity_pattern(activity: ItemActivity) -> IOPattern:
    """The pattern :func:`classify` gives one item's activity."""
    code = classify(
        np.array(len(activity.sequences)),
        np.array(len(activity.long_intervals)),
        np.array(activity.read_count),
        np.array(activity.io_count),
    )
    return PATTERNS[int(code)]


def make_profile(
    item_id: str,
    pattern: IOPattern,
    enclosure: str,
    size_bytes: int = 1 << 30,
    mean_iops: float = 0.1,
    bucket_counts: tuple[int, ...] | None = None,
    read_count: int | None = None,
    write_count: int = 0,
    write_bytes: int = 0,
) -> ProfileRow:
    """Construct a profile row without running the classifier.

    ``bucket_counts`` defaults to a flat distribution consistent with
    ``mean_iops`` over a 600 s window of 60 s buckets.
    """
    buckets = bucket_counts or tuple(
        [int(mean_iops * BUCKET)] * int(WINDOW / BUCKET)
    )
    total = read_count if read_count is not None else int(mean_iops * WINDOW)
    if pattern is IOPattern.P0:
        longs: tuple[tuple[float, float], ...] = ((0.0, WINDOW),)
        sequences: tuple[tuple[float, float, int, int], ...] = ()
    else:
        longs = ((100.0, 300.0),) if pattern is not IOPattern.P3 else ()
        sequences = ((0.0, 99.0, max(total, 1), write_count),)
    peak = max(buckets) / BUCKET if buckets else 0.0
    return ProfileRow(
        item_id=item_id,
        pattern=pattern,
        enclosure=enclosure,
        size_bytes=size_bytes,
        mean_iops=mean_iops,
        peak_iops=peak,
        bucket_counts=buckets,
        io_count=max(total, 0) + write_count,
        read_count=max(total, 0),
        read_bytes=max(total, 0) * 4096,
        write_bytes=write_bytes,
        long_intervals=longs,
        sequences=sequences,
    )


def make_table(
    rows: Mapping[str, ProfileRow] | Iterable[ProfileRow],
) -> ProfileTable:
    """The profile table of ``rows``, in their order.

    Shorter bucket rows are padded with zero counts.
    """
    rows = list(rows.values() if isinstance(rows, Mapping) else rows)
    width = max((len(row.bucket_counts) for row in rows), default=1)
    enclosures = list(dict.fromkeys(row.enclosure for row in rows))
    intervals = [span for row in rows for span in row.long_intervals]
    sequences = [seq for row in rows for seq in row.sequences]

    def bounds(counts: list[int]) -> np.ndarray:
        return np.cumsum([0, *counts], dtype=np.intp)

    return ProfileTable(
        item_ids=tuple(row.item_id for row in rows),
        size_bytes=np.array([row.size_bytes for row in rows], np.int64),
        enclosure_names=tuple(enclosures),
        enclosure_codes=np.array(
            [enclosures.index(row.enclosure) for row in rows], np.intp
        ),
        pattern_codes=np.array(
            [PATTERNS.index(row.pattern) for row in rows], np.intp
        ),
        io_count=np.array([row.io_count for row in rows], np.int64),
        read_count=np.array([row.read_count for row in rows], np.int64),
        read_bytes=np.array([row.read_bytes for row in rows], np.int64),
        write_bytes=np.array([row.write_bytes for row in rows], np.int64),
        mean_iops=np.array([row.mean_iops for row in rows], np.float64),
        peak_iops=np.array([row.peak_iops for row in rows], np.float64),
        bucket_counts=np.array(
            [
                list(row.bucket_counts) + [0] * (width - len(row.bucket_counts))
                for row in rows
            ],
            np.int64,
        ).reshape(len(rows), width),
        interval_starts=np.array([start for start, _ in intervals], np.float64),
        interval_ends=np.array([end for _, end in intervals], np.float64),
        interval_bounds=bounds([len(row.long_intervals) for row in rows]),
        sequence_starts=np.array([seq[0] for seq in sequences], np.float64),
        sequence_ends=np.array([seq[1] for seq in sequences], np.float64),
        sequence_reads=np.array([seq[2] for seq in sequences], np.int64),
        sequence_writes=np.array([seq[3] for seq in sequences], np.int64),
        sequence_bounds=bounds([len(row.sequences) for row in rows]),
    )


def table_rows(table: ProfileTable) -> dict[str, ProfileRow]:
    """Every row of ``table`` by item id, as Python scalars (``tolist``)."""
    starts = table.interval_starts.tolist()
    ends = table.interval_ends.tolist()
    spans = table.interval_bounds.tolist()
    seq = list(
        zip(
            table.sequence_starts.tolist(),
            table.sequence_ends.tolist(),
            table.sequence_reads.tolist(),
            table.sequence_writes.tolist(),
        )
    )
    seq_spans = table.sequence_bounds.tolist()
    columns = {
        name: getattr(table, name).tolist()
        for name in (
            "pattern_codes", "enclosure_codes", "size_bytes", "mean_iops",
            "peak_iops", "bucket_counts", "io_count", "read_count",
            "read_bytes", "write_bytes",
        )
    }
    rows = {}
    for code, item_id in enumerate(table.item_ids):
        a, b = spans[code], spans[code + 1]
        c, d = seq_spans[code], seq_spans[code + 1]
        value = {name: column[code] for name, column in columns.items()}
        rows[item_id] = ProfileRow(
            item_id=item_id,
            pattern=PATTERNS[value["pattern_codes"]],
            enclosure=table.enclosure_names[value["enclosure_codes"]],
            size_bytes=value["size_bytes"],
            mean_iops=value["mean_iops"],
            peak_iops=value["peak_iops"],
            bucket_counts=tuple(value["bucket_counts"]),
            io_count=value["io_count"],
            read_count=value["read_count"],
            read_bytes=value["read_bytes"],
            write_bytes=value["write_bytes"],
            long_intervals=tuple(zip(starts[a:b], ends[a:b])),
            sequences=tuple(seq[c:d]),
        )
    return rows
