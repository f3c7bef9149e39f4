"""Storage Monitor: physical I/O counts, intervals and spin-ups.

Paper §III-B.  The Storage Monitor sits at the block-virtualization layer
and watches the physical I/O issued to the disk enclosures.  In the
simulator it subscribes to the storage controller's physical tap and
keeps only the books the policies and reports read: per-window I/O
counts, per-enclosure I/O gaps and spin-up counts.  Power status and
consumption are read off the enclosures' energy timelines by the
power timeline (:mod:`repro.monitoring.timeline`) and the meters.

It is also the data source for the I/O-interval analysis behind the
paper's Figs 17–19: per-enclosure inter-arrival gaps of physical I/O.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping

from repro.capture import Snapshottable
from repro.storage.enclosure import DiskEnclosure
from repro.trace.records import PhysicalIORecord


class StorageMonitor(Snapshottable):
    """Counts physical I/O and keeps per-enclosure interval statistics."""

    _REBUILT = frozenset({"enclosures"})

    #: Gaps shorter than this are not retained individually (they can
    #: never be Long Intervals and would bloat memory on busy runs).
    MIN_RETAINED_GAP = 0.1

    def __init__(self, enclosures: list[DiskEnclosure]) -> None:
        self.enclosures = {enc.name: enc for enc in enclosures}
        self._window_counts: defaultdict[str, int] = defaultdict(int)
        self._window_start = 0.0
        self._last_io: dict[str, float] = {}
        #: Per-enclosure retained physical I/O gaps (>= MIN_RETAINED_GAP).
        self._gaps: defaultdict[str, list[float]] = defaultdict(list)
        self.physical_io_count = 0
        self._finished_at: float | None = None

    # ------------------------------------------------------------------
    # physical I/O trace
    # ------------------------------------------------------------------
    def on_physical(self, record: PhysicalIORecord) -> None:
        """Record one physical I/O passed as a record."""
        self.on_physical_fast(record.timestamp, record.enclosure, record.count)

    def on_physical_fast(
        self, timestamp: float, enclosure: str, count: int
    ) -> None:
        """Physical-tap callback from the storage controller.

        The books here count I/Os and time gaps per enclosure, so the
        tap carries nothing else.
        """
        self.physical_io_count += count
        self._window_counts[enclosure] += count
        prev = self._last_io.get(enclosure)
        if prev is not None:
            gap = timestamp - prev
            if gap >= self.MIN_RETAINED_GAP:
                self._gaps[enclosure].append(gap)
        self._last_io[enclosure] = timestamp

    def begin_window(self, now: float) -> None:
        """Reset per-window counters and mark the window start."""
        self._window_counts.clear()
        self._window_start = now

    @property
    def window_counts(self) -> Mapping[str, int]:
        """Per-enclosure physical I/O counts of the current window.

        The live table, not a copy: read it with ``.get(name, 0)``, since
        indexing a name with no I/O yet would insert a zero count.
        """
        return self._window_counts

    def window_stats(self, now: float) -> dict[str, float]:
        """Per-enclosure mean IOPS over the current window.

        Each value is the window's physical I/O count over its length;
        a window of zero length or less gives ``0.0`` everywhere.  No
        policy calls it: DDR folds :attr:`window_counts` in one pass.
        """
        window = now - self._window_start
        counts = self._window_counts
        if window > 0:
            return {name: counts.get(name, 0) / window for name in self.enclosures}
        return dict.fromkeys(self.enclosures, 0.0)

    def finish(self, now: float) -> None:
        """Close the final gap of every enclosure (last I/O → end of run)."""
        if self._finished_at is not None:
            return
        for name in self.enclosures:
            last = self._last_io.get(name)
            final_gap = now - last if last is not None else now
            if final_gap >= self.MIN_RETAINED_GAP:
                self._gaps[name].append(final_gap)
        self._finished_at = now

    def intervals(self, enclosure: str) -> list[float]:
        """Retained physical I/O gaps of one enclosure (unordered)."""
        if enclosure not in self.enclosures:
            raise KeyError(f"unknown enclosure {enclosure!r}")
        return list(self._gaps.get(enclosure, []))

    def all_intervals(self) -> list[float]:
        """Retained gaps across all enclosures (Figs 17–19 input)."""
        merged: list[float] = []
        for gaps in self._gaps.values():
            merged.extend(gaps)
        return merged

    def last_io_time(self, enclosure: str) -> float | None:
        """Timestamp of the enclosure's most recent I/O, if any."""
        return self._last_io.get(enclosure)

    # ------------------------------------------------------------------
    # spin-ups (read from the enclosures)
    # ------------------------------------------------------------------
    def spin_up_count(self, enclosure: str) -> int:
        """Number of spin-ups recorded for the enclosure."""
        return self.enclosures[enclosure].spin_up_count

    def spin_ups_since(self, enclosure: str, since: float) -> int:
        """Spin-up events at or after ``since`` (for the §V-D trigger).

        The enclosure appends its events at a monotonic clock, so the
        list is ascending and one bisection finds the first one counted.
        """
        events = self.enclosures[enclosure].spin_up_events
        return len(events) - bisect_left(events, since)
