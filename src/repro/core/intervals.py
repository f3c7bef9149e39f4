"""Long Intervals and I/O Sequences (paper §II-C.2, Fig 1).

Given the I/O times of one data item inside a monitoring window and the
break-even time, the window partitions into:

* **Long Intervals** — I/O-free gaps strictly longer than the break-even
  time, including the boundary gaps before the first and after the last
  I/O (Fig 1's "Long Interval #3 ends at the end of a monitoring
  period");
* **I/O Sequences** — maximal runs of I/Os whose internal gaps are all at
  most the break-even time ("a sequence of some read/write I/Os to a data
  item and I/O interval(s) shorter than the break-even time").

A data item with no I/O at all has a single Long Interval covering the
whole window and no I/O Sequence — the signature of pattern P0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ValidationError


@dataclass(frozen=True)
class Interval:
    """An I/O-free gap inside a monitoring window."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(f"interval end {self.end} before start {self.start}")

    @property
    def length(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class IOSequence:
    """A maximal run of I/Os with only short internal gaps."""

    start: float
    end: float
    read_count: int
    write_count: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(f"sequence end {self.end} before start {self.start}")
        if self.read_count < 0 or self.write_count < 0:
            raise ValidationError("counts must be non-negative")
        if self.read_count + self.write_count == 0:
            raise ValidationError("an I/O sequence must contain at least one I/O")

    @property
    def io_count(self) -> int:
        """Number of I/Os in this access sequence."""
        return self.read_count + self.write_count

    @property
    def duration(self) -> float:
        """Span of this sequence, first I/O to last, in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class ItemActivity:
    """The interval/sequence decomposition of one data item's window."""

    item_id: str
    window_start: float
    window_end: float
    long_intervals: tuple[Interval, ...]
    sequences: tuple[IOSequence, ...]

    @property
    def io_count(self) -> int:
        """Total number of I/Os across all sequences."""
        return sum(seq.io_count for seq in self.sequences)

    @property
    def read_count(self) -> int:
        """Total read count across all sequences."""
        return sum(seq.read_count for seq in self.sequences)

    @property
    def write_count(self) -> int:
        """Total write count across all sequences."""
        return sum(seq.write_count for seq in self.sequences)


def extract_activity(
    item_id: str,
    events: Sequence[tuple[float, bool]],
    window_start: float,
    window_end: float,
    break_even_time: float,
) -> ItemActivity:
    """Decompose one item's window into Long Intervals and I/O Sequences.

    ``events`` are time-ordered ``(timestamp, is_read)`` pairs inside the
    window.  ``break_even_time`` is the Long-Interval threshold: a gap
    qualifies iff it is *strictly longer* than the break-even time.
    """
    if window_end < window_start:
        raise ValidationError(
            f"window end {window_end} before start {window_start}"
        )
    if break_even_time <= 0:
        raise ValidationError("break_even_time must be positive")

    long_intervals: list[Interval] = []
    sequences: list[IOSequence] = []

    if not events:
        long_intervals.append(Interval(window_start, window_end))
        return ItemActivity(
            item_id=item_id,
            window_start=window_start,
            window_end=window_end,
            long_intervals=tuple(long_intervals),
            sequences=(),
        )

    previous = window_start
    seq_start: float | None = None
    seq_reads = 0
    seq_writes = 0
    seq_end = window_start

    def close_sequence() -> None:
        nonlocal seq_start, seq_reads, seq_writes
        if seq_start is not None:
            sequences.append(
                IOSequence(
                    start=seq_start,
                    end=seq_end,
                    read_count=seq_reads,
                    write_count=seq_writes,
                )
            )
        seq_start = None
        seq_reads = 0
        seq_writes = 0

    last_time = window_start
    for timestamp, is_read in events:
        if timestamp < last_time:
            raise ValidationError(
                f"events of item {item_id!r} are not time-ordered: "
                f"{timestamp} after {last_time}"
            )
        last_time = timestamp
        gap = timestamp - previous
        if gap > break_even_time:
            long_intervals.append(Interval(previous, timestamp))
            close_sequence()
        if seq_start is None:
            seq_start = timestamp
        if is_read:
            seq_reads += 1
        else:
            seq_writes += 1
        seq_end = timestamp
        previous = timestamp

    trailing = window_end - previous
    if trailing > break_even_time:
        long_intervals.append(Interval(previous, window_end))
    close_sequence()

    return ItemActivity(
        item_id=item_id,
        window_start=window_start,
        window_end=window_end,
        long_intervals=tuple(long_intervals),
        sequences=tuple(sequences),
    )
