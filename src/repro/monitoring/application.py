"""Application Monitor: logical I/O trace and mapping information.

Paper §III-A.  The Application Monitor sits at the file/record layer and
collects (i) **logical mapping information** — which data item lives on
which volume — and (ii) the **logical I/O trace**.  The power-management
function reads the current monitoring window's records from here to
classify data items into logical I/O patterns.

The monitor also accumulates the response-time statistics that the
paper's evaluation reports ("The I/O response time and I/O throughput
were measured using the application monitor in the trace replay tool",
§VII-A.4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import UsageError
from repro.monitoring.repository import TraceRepository
from repro.trace.records import IOType, LogicalIORecord


class WindowColumns:
    """One monitoring window's logical I/Os as parallel columns.

    The Application Monitor buffers the current window here instead of
    as a list of record objects: the classification pass
    (:func:`repro.core.patterns.build_profiles`) consumes plain columns,
    so the replay never materializes
    :class:`~repro.trace.records.LogicalIORecord` objects per window.
    """

    __slots__ = (
        "timestamps",
        "item_ids",
        "offsets",
        "sizes",
        "reads",
        "sequentials",
    )

    def __init__(self) -> None:
        self.timestamps: list[float] = []
        self.item_ids: list[str] = []
        self.offsets: list[int] = []
        self.sizes: list[int] = []
        self.reads: list[bool] = []
        self.sequentials: list[bool] = []

    def __len__(self) -> int:
        return len(self.timestamps)

    def clear(self) -> None:
        """Drop all buffered I/Os."""
        self.timestamps.clear()
        self.item_ids.clear()
        self.offsets.clear()
        self.sizes.clear()
        self.reads.clear()
        self.sequentials.clear()

    def profile_arrays(self) -> tuple[list[float], list[str], list[int], list[bool]]:
        """The ``(timestamps, item ids, sizes, reads)`` columns that the
        access-pattern classifier consumes (same shape as
        :meth:`repro.trace.columnar.ColumnarTrace.profile_arrays`)."""
        return self.timestamps, self.item_ids, self.sizes, self.reads

    def to_records(self) -> list[LogicalIORecord]:
        """Materialize the buffered window as record objects."""
        return [
            LogicalIORecord(
                timestamp=self.timestamps[i],
                item_id=self.item_ids[i],
                offset=self.offsets[i],
                size=self.sizes[i],
                io_type=IOType.READ if self.reads[i] else IOType.WRITE,
                sequential=self.sequentials[i],
            )
            for i in range(len(self.timestamps))
        ]


@dataclass(frozen=True)
class ResponseStats:
    """Response-time aggregates measured at the application monitor."""

    io_count: int
    read_count: int
    response_sum: float
    read_response_sum: float
    max_response: float

    @property
    def mean_response(self) -> float:
        """Mean response time across all I/Os, in seconds."""
        return self.response_sum / self.io_count if self.io_count else 0.0

    @property
    def mean_read_response(self) -> float:
        """Mean response time of read I/Os, in seconds."""
        return self.read_response_sum / self.read_count if self.read_count else 0.0


class ApplicationMonitor:
    """Collects the logical I/O trace and per-window item activity.

    ``repository`` (optional) receives every captured record — the
    paper's §III-A store: "stored into memory in the application
    monitor.  If the memory becomes full, the I/O trace is stored in
    the repository" (:class:`~repro.monitoring.repository.TraceRepository`
    implements exactly that bounded-memory/spill contract).
    """

    def __init__(
        self,
        keep_full_trace: bool = False,
        repository: TraceRepository[LogicalIORecord] | None = None,
    ) -> None:
        #: I/Os of the *current* monitoring window, in arrival order,
        #: buffered as parallel columns (no record objects).
        self._window = WindowColumns()
        self._window_start = 0.0
        #: Logical mapping information: item → volume name.
        self._item_volume: dict[str, str] = {}
        self._keep_full_trace = keep_full_trace
        self._full_trace: list[LogicalIORecord] = []
        self.repository = repository

        self.io_count = 0
        self.read_count = 0
        self.response_sum = 0.0
        self.read_response_sum = 0.0
        self.max_response = 0.0
        #: Per-item totals over the whole run (used by reports).
        self.ios_per_item: defaultdict[str, int] = defaultdict(int)
        #: Compact per-I/O samples ``(timestamp, response, is_read)`` for
        #: time-windowed analysis (e.g. per-query response, paper Fig 15).
        self.response_samples: list[tuple[float, float, bool]] = []

    # ------------------------------------------------------------------
    # logical mapping information
    # ------------------------------------------------------------------
    def register_item(self, item_id: str, volume: str) -> None:
        """Record that a data item was created on a volume."""
        self._item_volume[item_id] = volume

    def unregister_item(self, item_id: str) -> None:
        """Forget the item's volume mapping, if known."""
        self._item_volume.pop(item_id, None)

    def volume_of(self, item_id: str) -> str | None:
        """Volume the item was registered on, or ``None``."""
        return self._item_volume.get(item_id)

    def known_items(self) -> set[str]:
        """Ids of all items registered with the monitor."""
        return set(self._item_volume)

    # ------------------------------------------------------------------
    # logical I/O trace
    # ------------------------------------------------------------------
    def record(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
        response_time: float,
    ) -> None:
        """Capture one application I/O and its measured response.

        A :class:`~repro.trace.records.LogicalIORecord` is built only
        when full tracing or a repository needs one.
        """
        if self._keep_full_trace or self.repository is not None:
            record = LogicalIORecord(
                timestamp=timestamp,
                item_id=item_id,
                offset=offset,
                size=size,
                io_type=IOType.READ if is_read else IOType.WRITE,
                sequential=sequential,
            )
            if self._keep_full_trace:
                self._full_trace.append(record)
            if self.repository is not None:
                self.repository.append(record)
        window = self._window
        window.timestamps.append(timestamp)
        window.item_ids.append(item_id)
        window.offsets.append(offset)
        window.sizes.append(size)
        window.reads.append(is_read)
        window.sequentials.append(sequential)
        self.io_count += 1
        self.response_sum += response_time
        self.response_samples.append((timestamp, response_time, is_read))
        if response_time > self.max_response:
            self.max_response = response_time
        if is_read:
            self.read_count += 1
            self.read_response_sum += response_time
        self.ios_per_item[item_id] += 1

    @property
    def window_start(self) -> float:
        """Start time of the current monitoring window."""
        return self._window_start

    def window_records(self) -> list[LogicalIORecord]:
        """Records captured since the window began (arrival order).

        Materializes record objects from the columnar buffer; the
        classification hot path uses :meth:`window_columns` instead.
        """
        return self._window.to_records()

    def window_columns(self) -> WindowColumns:
        """The current window's I/Os as parallel columns (no copy)."""
        return self._window

    def begin_window(self, now: float) -> None:
        """Start a new monitoring window, discarding the old buffer."""
        self._window.clear()
        self._window_start = now

    def full_trace(self) -> list[LogicalIORecord]:
        """All retained logical records (requires retention enabled)."""
        if not self._keep_full_trace:
            raise UsageError(
                "full trace retention is disabled; construct with "
                "keep_full_trace=True"
            )
        return list(self._full_trace)

    # ------------------------------------------------------------------
    # Snapshot support (repro.persistence)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable monitor state (:mod:`repro.persistence`).

        Captures the current window's columns, the mapping information,
        and every response accumulator.  The full trace (when retention
        is on) rides along; an attached spill repository is *not*
        captured — snapshot sessions run without one.
        """
        window = self._window
        return {
            "window": {
                "timestamps": list(window.timestamps),
                "item_ids": list(window.item_ids),
                "offsets": list(window.offsets),
                "sizes": list(window.sizes),
                "reads": list(window.reads),
                "sequentials": list(window.sequentials),
            },
            "window_start": self._window_start,
            "item_volume": list(self._item_volume.items()),
            "full_trace": list(self._full_trace),
            "io_count": self.io_count,
            "read_count": self.read_count,
            "response_sum": self.response_sum,
            "read_response_sum": self.read_response_sum,
            "max_response": self.max_response,
            "ios_per_item": list(self.ios_per_item.items()),
            "response_samples": list(self.response_samples),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the monitor exactly as :meth:`snapshot_state` captured it."""
        window = state["window"]
        self._window.timestamps = list(window["timestamps"])
        self._window.item_ids = list(window["item_ids"])
        self._window.offsets = list(window["offsets"])
        self._window.sizes = list(window["sizes"])
        self._window.reads = list(window["reads"])
        self._window.sequentials = list(window["sequentials"])
        self._window_start = state["window_start"]
        self._item_volume = dict(state["item_volume"])
        self._full_trace = list(state["full_trace"])
        self.io_count = state["io_count"]
        self.read_count = state["read_count"]
        self.response_sum = state["response_sum"]
        self.read_response_sum = state["read_response_sum"]
        self.max_response = state["max_response"]
        self.ios_per_item = defaultdict(int, state["ios_per_item"])
        self.response_samples = [
            (timestamp, response, is_read)
            for timestamp, response, is_read in state["response_samples"]
        ]

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def response_stats(self) -> ResponseStats:
        """Snapshot of the response-time accumulators."""
        return ResponseStats(
            io_count=self.io_count,
            read_count=self.read_count,
            response_sum=self.response_sum,
            read_response_sum=self.read_response_sum,
            max_response=self.max_response,
        )
