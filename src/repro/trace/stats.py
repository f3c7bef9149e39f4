"""Summary statistics over I/O traces.

Used by the workload generators' self-checks, by the experiment reports,
and by tests that assert a generated trace has the intended shape
(read ratio, item count, duration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.trace.records import LogicalIORecord


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one logical trace."""

    record_count: int
    read_count: int
    write_count: int
    start_time: float
    end_time: float
    total_bytes: int
    item_count: int

    @property
    def duration(self) -> float:
        """Trace time span in seconds."""
        return self.end_time - self.start_time

    @property
    def read_ratio(self) -> float:
        """Fraction of records that are reads."""
        return self.read_count / self.record_count if self.record_count else 0.0

    @property
    def mean_iops(self) -> float:
        """Mean I/O rate over the trace, in operations per second."""
        if self.duration <= 0:
            return 0.0
        return self.record_count / self.duration


def summarize(records: Iterable[LogicalIORecord]) -> TraceSummary:
    """Compute a :class:`TraceSummary` in one pass."""
    count = reads = 0
    total_bytes = 0
    start = float("inf")
    end = float("-inf")
    items: set[str] = set()
    for rec in records:
        count += 1
        total_bytes += rec.size
        if rec.is_read:
            reads += 1
        items.add(rec.item_id)
        if rec.timestamp < start:
            start = rec.timestamp
        if rec.timestamp > end:
            end = rec.timestamp
    if count == 0:
        return TraceSummary(0, 0, 0, 0.0, 0.0, 0, 0)
    return TraceSummary(
        record_count=count,
        read_count=reads,
        write_count=count - reads,
        start_time=start,
        end_time=end,
        total_bytes=total_bytes,
        item_count=len(items),
    )
