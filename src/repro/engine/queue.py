"""Deterministic heap-based event queue.

Heap entries are ``(time, priority, seq, event)`` tuples, so ordering
is total and explicit: ascending virtual time, then ascending priority
class (see :mod:`repro.engine.events` for the table), then insertion
order.  No comparison ever reaches the event objects themselves, and
two runs that push the same events in the same order pop them in the
same order on any platform.

Every pushed event fires: nothing is ever withdrawn.  The one schedule
that moves — the policy checkpoint — lives in a kernel field, not here.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.engine.events import Event
from repro.errors import UsageError

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of :class:`~repro.engine.events.Event` objects."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> Event:
        """Schedule ``event`` and return it.

        An event instance lives in the queue at most once; re-pushing a
        queued instance raises :class:`~repro.errors.UsageError` (create
        a fresh event instead).
        """
        if event.queued:
            raise UsageError(f"cannot push queued event {event!r}")
        event.queued = True
        heappush(self._heap, (event.time, event.priority, self._seq, event))
        self._seq += 1
        return event

    def peek_key(self) -> tuple[float, int, int] | None:
        """Return ``(time, priority, seq)`` of the next event, if any."""
        heap = self._heap
        if heap:
            return heap[0][:3]
        return None

    def pop(self) -> Event | None:
        """Remove and return the next event, or None when empty."""
        heap = self._heap
        if not heap:
            return None
        event = heappop(heap)[3]
        event.queued = False
        return event

    # ------------------------------------------------------------------
    # Snapshot support (repro.persistence)
    # ------------------------------------------------------------------

    def live_entries(self) -> list[tuple[float, int, int, Event]]:
        """Queued ``(time, priority, seq, event)`` entries in pop order.

        The sequence numbers are the originals: restoring them verbatim
        (together with :attr:`next_seq`) keeps FIFO tie-breaks
        bit-identical across a snapshot/resume seam.
        """
        return sorted(self._heap)

    @property
    def next_seq(self) -> int:
        """The sequence number the next pushed event would receive."""
        return self._seq

    def restore_entries(
        self,
        entries: list[tuple[float, int, int, Event]],
        next_seq: int,
    ) -> None:
        """Rebuild the queue from :meth:`live_entries` output.

        Bypasses :meth:`push` so the stored sequence numbers (and with
        them same-key pop order) are preserved exactly; the events must
        be fresh un-queued instances.
        """
        self._heap = []
        for time, priority, seq, event in sorted(entries):
            event.queued = True
            heappush(self._heap, (time, priority, seq, event))
        self._seq = next_seq
