"""Shared machinery for the synthetic workload generators.

Every generator is a deterministic function of its seed (numpy
``default_rng``), produces per-item event streams, and merges them into
one time-ordered logical trace.  The helpers here cover the arrival
processes the three workloads are built from:

* steady streams with bounded gaps (P3-shaped activity),
* burst processes — long idle gaps punctuated by short runs of I/O
  (P1/P2-shaped activity),
* sequential scan phases (DSS-shaped activity).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro import units
from repro.trace.columnar import FLAG_READ, FLAG_SEQUENTIAL, ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord


@dataclass(frozen=True)
class EventStream:
    """Raw per-item events before merging: parallel numpy arrays."""

    item_id: str
    times: np.ndarray
    is_read: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    sequential: bool = False

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (len(self.is_read) == len(self.offsets) == len(self.sizes) == n):
            raise ValidationError("event arrays must have equal length")


def steady_events(
    rng: np.random.Generator,
    item_id: str,
    item_size: int,
    duration: float,
    gap_low: float,
    gap_high: float,
    read_fraction: float,
    io_size: int = 8 * units.KB,
    start: float = 0.0,
) -> EventStream:
    """Continuous activity with uniform gaps in ``[gap_low, gap_high]``.

    With ``gap_high`` below the break-even time this yields a pure P3
    item: one wall-to-wall I/O sequence, no long interval.
    """
    if not 0 < gap_low <= gap_high:
        raise ValidationError("need 0 < gap_low <= gap_high")
    # Over-allocate gaps so the stream always reaches the window end —
    # a truncated stream would leave a spurious trailing Long Interval
    # and misclassify a steady (P3-shaped) item as P1/P2.
    expected = int(duration / ((gap_low + gap_high) / 2) * 1.2) + 32
    gaps = rng.uniform(gap_low, gap_high, size=expected)
    times = start + np.cumsum(gaps)
    while times[-1] < start + duration:  # pragma: no cover - rare refill
        extra = rng.uniform(gap_low, gap_high, size=64)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    times = times[times < start + duration]
    n = len(times)
    return EventStream(
        item_id=item_id,
        times=times,
        is_read=rng.random(n) < read_fraction,
        offsets=_random_offsets(rng, n, item_size, io_size),
        sizes=np.full(n, io_size, dtype=np.int64),
    )


def steady_with_lulls_events(
    rng: np.random.Generator,
    item_id: str,
    item_size: int,
    duration: float,
    gap_low: float,
    gap_high: float,
    lull_probability: float,
    lull_low: float,
    lull_high: float,
    read_fraction: float,
    io_size: int = 8 * units.KB,
    start: float = 0.0,
) -> EventStream:
    """Steady activity punctuated by occasional long lulls.

    Most gaps are short (``[gap_low, gap_high]``, below break-even);
    with probability ``lull_probability`` a gap is instead drawn from
    ``[lull_low, lull_high]`` — well above break-even.  The result is a
    P1/P2 item whose Long Intervals are few but *long*, which is what
    lets the adaptive monitoring period grow (paper §IV-H).
    """
    if not 0 < gap_low <= gap_high:
        raise ValidationError("need 0 < gap_low <= gap_high")
    if not 0 <= lull_probability < 1:
        raise ValidationError("lull_probability must be in [0, 1)")
    if not 0 < lull_low <= lull_high:
        raise ValidationError("need 0 < lull_low <= lull_high")
    mean_gap = (1 - lull_probability) * (gap_low + gap_high) / 2 + (
        lull_probability * (lull_low + lull_high) / 2
    )
    expected = int(duration / mean_gap * 1.2) + 32
    short = rng.uniform(gap_low, gap_high, size=expected)
    long_ = rng.uniform(lull_low, lull_high, size=expected)
    lull = rng.random(expected) < lull_probability
    gaps = np.where(lull, long_, short)
    times = start + np.cumsum(gaps)
    while times[-1] < start + duration:  # pragma: no cover - rare refill
        extra = rng.uniform(gap_low, gap_high, size=64)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    times = times[times < start + duration]
    n = len(times)
    return EventStream(
        item_id=item_id,
        times=times,
        is_read=rng.random(n) < read_fraction,
        offsets=_random_offsets(rng, n, item_size, io_size),
        sizes=np.full(n, io_size, dtype=np.int64),
    )


def burst_events(
    rng: np.random.Generator,
    item_id: str,
    item_size: int,
    duration: float,
    mean_interburst: float,
    min_interburst: float,
    burst_size_low: int,
    burst_size_high: int,
    burst_duration_low: float,
    burst_duration_high: float,
    read_fraction: float,
    io_size: int = 16 * units.KB,
    start: float = 0.0,
) -> EventStream:
    """Bursts of I/O separated by long idle gaps.

    Inter-burst gaps are exponential with mean ``mean_interburst``,
    floored at ``min_interburst``; with the floor above the break-even
    time every inter-burst gap is a Long Interval, making the item P1
    (read-heavy) or P2 (write-heavy).
    """
    if mean_interburst <= 0 or min_interburst < 0:
        raise ValidationError("inter-burst times must be positive")
    if burst_size_low <= 0 or burst_size_high < burst_size_low:
        raise ValidationError("bad burst size range")
    times_list: list[np.ndarray] = []
    clock = start + max(
        min_interburst, float(rng.exponential(mean_interburst))
    )
    end = start + duration
    while clock < end:
        count = int(rng.integers(burst_size_low, burst_size_high + 1))
        span = rng.uniform(burst_duration_low, burst_duration_high)
        burst = clock + np.sort(rng.uniform(0.0, span, size=count))
        times_list.append(burst[burst < end])
        clock = burst[-1] + max(
            min_interburst, float(rng.exponential(mean_interburst))
        )
    if not times_list:
        # Guarantee at least one burst: the paper's measurement period
        # runs to application completion, so every data item is accessed
        # at least once (no P0 items in Fig 6).
        count = int(rng.integers(burst_size_low, burst_size_high + 1))
        span = rng.uniform(burst_duration_low, burst_duration_high)
        at = rng.uniform(start, max(start + 1.0, end - span))
        burst = at + np.sort(rng.uniform(0.0, span, size=count))
        times_list.append(burst[burst < end])
    times = np.concatenate(times_list)
    n = len(times)
    return EventStream(
        item_id=item_id,
        times=times,
        is_read=rng.random(n) < read_fraction,
        offsets=_random_offsets(rng, n, item_size, io_size),
        sizes=np.full(n, io_size, dtype=np.int64),
    )


def scan_events(
    rng: np.random.Generator,
    item_id: str,
    item_size: int,
    scan_start: float,
    scan_duration: float,
    iops: float,
    io_size: int = 1 * units.MB,
    read: bool = True,
) -> EventStream:
    """One sequential scan phase: evenly paced I/O over the phase.

    Offsets advance monotonically (wrapping if the phase out-runs the
    item), and the records carry the sequential hint so the controller
    bills the sequential service rate.
    """
    if scan_duration <= 0 or iops <= 0:
        raise ValidationError("scan_duration and iops must be positive")
    count = max(1, int(scan_duration * iops))
    jitter = rng.uniform(-0.4, 0.4, size=count) / iops
    times = scan_start + (np.arange(count) + 0.5) / iops + jitter
    times = np.sort(np.clip(times, scan_start, scan_start + scan_duration))
    usable = max(io_size, (item_size // io_size) * io_size)
    offsets = (np.arange(count, dtype=np.int64) * io_size) % usable
    offsets = np.minimum(offsets, max(0, item_size - io_size))
    return EventStream(
        item_id=item_id,
        times=times,
        is_read=np.full(count, read),
        offsets=offsets,
        sizes=np.full(count, min(io_size, item_size), dtype=np.int64),
        sequential=True,
    )


def merge_streams(streams: list[EventStream]) -> ColumnarTrace:
    """Merge per-item streams into one time-ordered columnar trace.

    A stable sort on the timestamps orders the records (ties keep
    stream order), and every column is gathered in that order in one
    numpy pass — no record object is built.  Item ids are interned in
    first-appearance order of the merged trace (several streams may
    share one id), so the result equals
    :meth:`ColumnarTrace.from_records` over the same records merged one
    by one.  A record a :class:`LogicalIORecord` would refuse raises the
    same :class:`~repro.errors.ValidationError`.
    """
    streams = [s for s in streams if len(s.times)]
    if not streams:
        return ColumnarTrace.from_records(())
    lengths = [len(s.times) for s in streams]
    times = np.concatenate([s.times for s in streams]).astype(np.float64)
    order = np.argsort(times, kind="stable")
    times = times[order]
    offsets = np.concatenate([s.offsets for s in streams]).astype(np.int64)[order]
    sizes = np.concatenate([s.sizes for s in streams]).astype(np.int64)[order]
    is_read = np.concatenate([s.is_read for s in streams]).astype(bool)[order]
    sequential = np.repeat([s.sequential for s in streams], lengths)[order]

    names = list(dict.fromkeys(s.item_id for s in streams))
    slot = {name: i for i, name in enumerate(names)}
    raw_items = np.repeat(
        np.array([slot[s.item_id] for s in streams], dtype=np.int64), lengths
    )[order]
    # Every slot occurs (empty streams are gone), so ``first`` holds
    # each slot's first position in trace order.
    _, first = np.unique(raw_items, return_index=True)
    by_appearance = np.argsort(first, kind="stable")
    renumber = np.empty(len(names), dtype=np.uint32)
    renumber[by_appearance] = np.arange(len(names), dtype=np.uint32)

    bad = np.flatnonzero((times < 0) | (offsets < 0) | (sizes <= 0))
    if len(bad):
        i = bad[0]
        # The first refused record in trace order raises exactly the
        # error the record-by-record merge raised.
        LogicalIORecord(
            timestamp=float(times[i]),
            item_id=names[raw_items[i]],
            offset=int(offsets[i]),
            size=int(sizes[i]),
            io_type=IOType.READ,
        )
    flags = np.where(is_read, FLAG_READ, 0) | np.where(
        sequential, FLAG_SEQUENTIAL, 0
    )
    return ColumnarTrace(
        items=tuple(names[i] for i in by_appearance),
        timestamps=_column("d", times),
        item_index=_column("I", renumber[raw_items]),
        offsets=_column("q", offsets),
        sizes=_column("q", sizes),
        flags=flags.astype(np.uint8).tobytes(),
    )


def _column(code: str, values: np.ndarray) -> "array[Any]":
    """Copy a numpy column into the ``array`` type the replay pump reads."""
    column = array(code)
    column.frombytes(values.tobytes())
    return column


def _random_offsets(
    rng: np.random.Generator, n: int, item_size: int, io_size: int
) -> np.ndarray:
    """Block-aligned random offsets that keep I/O inside the item."""
    span = max(1, (item_size - io_size) // units.BLOCK_SIZE)
    return rng.integers(0, span, size=n, dtype=np.int64) * units.BLOCK_SIZE
