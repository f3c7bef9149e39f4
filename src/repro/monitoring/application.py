"""Application Monitor: logical I/O trace and mapping information.

Paper §III-A.  The Application Monitor sits at the file/record layer and
collects (i) **logical mapping information** — which data item lives on
which volume — and (ii) the **logical I/O trace**.  The power-management
function reads the current monitoring window's records from here to
classify data items into logical I/O patterns.

The monitor buffers only the current window.  The paper's monitor also
keeps the whole trace, spilling it to a repository when memory fills;
nothing in the simulator reads past the window, and the workload's own
trace (its ``.ecot`` image) already holds every I/O, so that store is
not modelled.

The monitor also accumulates the response-time statistics that the
paper's evaluation reports ("The I/O response time and I/O throughput
were measured using the application monitor in the trace replay tool",
§VII-A.4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


class WindowColumns:
    """One monitoring window's logical I/Os as parallel columns.

    The Application Monitor buffers the current window here instead of
    as a list of record objects: the classification pass
    (:func:`repro.core.patterns.build_profiles`) consumes plain columns,
    so the replay never materializes
    :class:`~repro.trace.records.LogicalIORecord` objects per window.
    """

    __slots__ = ("timestamps", "item_ids", "sizes", "reads")

    def __init__(self) -> None:
        self.timestamps: list[float] = []
        self.item_ids: list[str] = []
        self.sizes: list[int] = []
        self.reads: list[bool] = []

    def __len__(self) -> int:
        return len(self.timestamps)

    def clear(self) -> None:
        """Drop all buffered I/Os."""
        self.timestamps.clear()
        self.item_ids.clear()
        self.sizes.clear()
        self.reads.clear()

    def profile_arrays(self) -> tuple[list[float], list[str], list[int], list[bool]]:
        """The ``(timestamps, item ids, sizes, reads)`` columns that the
        access-pattern classifier consumes (same shape as
        :meth:`repro.trace.columnar.ColumnarTrace.profile_arrays`)."""
        return self.timestamps, self.item_ids, self.sizes, self.reads


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
    """Collects the current window's logical I/Os and run-wide response books."""

    def __init__(self) -> None:
        #: I/Os of the *current* monitoring window, in arrival order,
        #: buffered as parallel columns (no record objects).
        self._window = WindowColumns()
        self._window_start = 0.0
        #: Logical mapping information: item → volume name.
        self._item_volume: dict[str, str] = {}

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

        ``offset`` and ``sequential`` are accepted so callers pass a
        logical I/O's fields positionally; the window classification
        reads neither, so neither is kept.
        """
        window = self._window
        window.timestamps.append(timestamp)
        window.item_ids.append(item_id)
        window.sizes.append(size)
        window.reads.append(is_read)
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

    def window_columns(self) -> WindowColumns:
        """The current window's I/Os as parallel columns (no copy)."""
        return self._window

    def begin_window(self, now: float) -> None:
        """Start a new monitoring window, discarding the old buffer."""
        self._window.clear()
        self._window_start = now

    # ------------------------------------------------------------------
    # Snapshot support (repro.persistence)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable monitor state (:mod:`repro.persistence`).

        Captures the current window's columns, the mapping information,
        and every response accumulator.
        """
        window = self._window
        return {
            "window": {
                "timestamps": list(window.timestamps),
                "item_ids": list(window.item_ids),
                "sizes": list(window.sizes),
                "reads": list(window.reads),
            },
            "window_start": self._window_start,
            "item_volume": list(self._item_volume.items()),
            "io_count": self.io_count,
            "read_count": self.read_count,
            "response_sum": self.response_sum,
            "read_response_sum": self.read_response_sum,
            "max_response": self.max_response,
            "ios_per_item": list(self.ios_per_item.items()),
            "response_samples": list(self.response_samples),
        }

    def restore_state(self, state: dict) -> None:
        """Restore the monitor exactly as :meth:`snapshot_state` captured it.

        States written by older versions also carry the retained full
        trace and the window's ``offsets`` and ``sequentials``; nothing
        reads those, so they are ignored.
        """
        window = state["window"]
        self._window.timestamps = list(window["timestamps"])
        self._window.item_ids = list(window["item_ids"])
        self._window.sizes = list(window["sizes"])
        self._window.reads = list(window["reads"])
        self._window_start = state["window_start"]
        self._item_volume = dict(state["item_volume"])
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
