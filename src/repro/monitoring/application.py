"""Application Monitor: logical I/O trace and mapping information.

Paper §III-A.  The Application Monitor sits at the file/record layer and
collects (i) **logical mapping information** — which data item lives on
which volume — and (ii) the **logical I/O trace**.  The power-management
function reads the current monitoring window's records from here to
classify data items into logical I/O patterns.

In the simulator the logical trace already exists: it is the
:class:`~repro.trace.columnar.ColumnarTrace` the kernel replays.  The
kernel attaches the monitor to that trace, and the monitor indexes it by
row instead of copying I/Os: per served I/O it keeps only the measured
response, and the current window is the rows from ``window_row`` to the
last served one.  The paper's monitor also spills the whole trace to a
repository when memory fills; the workload's own trace (its ``.ecot``
image) already holds every I/O, so that store is not modelled.

The monitor also derives the response-time statistics that the paper's
evaluation reports ("The I/O response time and I/O throughput were
measured using the application monitor in the trace replay tool",
§VII-A.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.capture import Snapshottable
from repro.errors import SnapshotError
from repro.trace.columnar import FLAG_READ, ColumnarTrace

#: What an unattached monitor indexes: no rows.
_NO_TRACE = ColumnarTrace.from_records(())


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


def _running_total(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added in row order.

    The bits of a running total kept per I/O: ``np.cumsum`` folds left,
    where ``np.sum`` and the builtin ``sum`` (compensated on Python
    3.12) would round differently.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


class ApplicationMonitor(Snapshottable):
    """Indexes the replayed trace by row and keeps one response per served I/O.

    A zone's monitor (:mod:`repro.baselines.zoned`) passes the array's
    monitor as ``source``: it reads that monitor's trace and responses
    through a window of its own, and is never attached or recorded to.

    Its snapshot state is the window cursor, the mapping information
    and the served rows' responses (a zone's monitor owns none); the
    trace is the workload's, which the resumed replay attaches again.
    """

    __slots__ = (
        "_source",
        "_trace",
        "_responses",
        "window_row",
        "_window_start",
        "_item_volume",
    )

    _REBUILT = frozenset({"_source", "_trace"})

    _LOGS = frozenset({"_responses"})

    def __init__(self, source: ApplicationMonitor | None = None) -> None:
        self._source = self if source is None else source
        self._trace = _NO_TRACE
        #: Measured response of each served row of the trace, in row order.
        self._responses: list[float] = []
        #: First trace row of the current monitoring window.
        self.window_row = 0
        self._window_start = 0.0
        #: Logical mapping information: item → volume name.
        self._item_volume: dict[str, str] = {}

    # ------------------------------------------------------------------
    # logical mapping information
    # ------------------------------------------------------------------
    def register_item(self, item_id: str, volume: str) -> None:
        """Record that a data item was created on a volume."""
        self._item_volume[item_id] = volume

    def volume_of(self, item_id: str) -> str | None:
        """Volume the item was registered on, or ``None``."""
        return self._item_volume.get(item_id)

    # ------------------------------------------------------------------
    # logical I/O trace
    # ------------------------------------------------------------------
    def attach(
        self, trace: ColumnarTrace, served: int
    ) -> Callable[[float], None]:
        """Index ``trace``, whose first ``served`` rows were already served.

        A replay attaches with ``served == 0``; a resumed one with its
        cursor, after the responses of those rows were restored.
        Raises :class:`~repro.errors.SnapshotError` when the monitor
        holds a different number of responses.

        Returns the bound ``append`` of the response list, which the
        kernel calls once per served row in place of :meth:`record`:
        restore happens before attach, and nothing rebinds the list
        during a run.
        """
        if len(self._responses) != served:
            raise SnapshotError(
                f"application monitor holds {len(self._responses)} "
                f"responses, but the replay resumes after {served} rows"
            )
        self._trace = trace
        return self._responses.append

    def record(self, response_time: float) -> None:
        """Capture the measured response of the next row of the trace."""
        self._responses.append(response_time)

    @property
    def window_start(self) -> float:
        """Start time of the current monitoring window."""
        return self._window_start

    def window_columns(self) -> ColumnarTrace:
        """The current window's rows of the trace (a zero-copy slice)."""
        source = self._source
        return source._trace[self.window_row : len(source._responses)]

    def begin_window(self, now: float) -> None:
        """Start a new monitoring window after the last served row."""
        self.window_row = len(self._source._responses)
        self._window_start = now

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def _read_mask(self) -> np.ndarray:
        """Whether each served row is a read, in row order."""
        source = self._source
        flags = np.frombuffer(source._trace.flags, dtype=np.uint8)
        return (flags[: len(source._responses)] & FLAG_READ) != 0

    def response_stats(self) -> ResponseStats:
        """Response-time totals over every served row."""
        responses = np.array(self._source._responses, dtype=np.float64)
        reads = self._read_mask()
        return ResponseStats(
            io_count=len(responses),
            read_count=int(np.count_nonzero(reads)),
            response_sum=_running_total(responses),
            read_response_sum=_running_total(responses[reads]),
            max_response=float(responses.max(initial=0.0)),
        )

    @property
    def response_samples(self) -> list[tuple[float, float, bool]]:
        """``(timestamp, response, is_read)`` of every served row, in row
        order, for time-windowed analysis (e.g. per-query response,
        paper Fig 15)."""
        source = self._source
        return list(
            zip(
                source._trace.timestamps,
                source._responses,
                self._read_mask().tolist(),
            )
        )
