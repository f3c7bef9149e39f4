"""Power timeline: periodic power sampling over a run (paper §III-B).

The Storage Monitor's specification includes "Power Consumption of the
Storage Device ... a timestamp of when power consumption of the disk
enclosure is collected, and power consumption".  :class:`PowerTimeline`
implements that collection: sampled at a fixed cadence during replay,
it yields per-enclosure *interval* power (energy difference over the
sampling interval — what a physical power meter logs), enabling
power-over-time analysis rather than only run-level averages.

Under the :mod:`repro.engine` kernel the timeline's next boundary,
:attr:`PowerTimeline.next_sample_time`, is the kernel's sample slot: the
kernel fires it at the boundary's exact time, *before* any same-instant
mutation (class 0) — nothing outside the kernel should call
:meth:`PowerTimeline.sample` during a run (check R8 flags such calls),
since the kernel reads this cursor as its schedule.  Boundaries after
the last policy checkpoint are settled by :meth:`PowerTimeline.finish`
once the end-of-run flush has landed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capture import Snapshottable
from repro.errors import ValidationError
from repro.storage.enclosure import DiskEnclosure
from repro.units import Joules, Seconds, Watts


@dataclass(frozen=True)
class TimelinePoint:
    """One sampling instant: total and per-enclosure interval watts."""

    timestamp: Seconds
    total_watts: Watts
    per_enclosure: dict[str, Watts]


class PowerTimeline(Snapshottable):
    """Samples enclosure power at a fixed cadence."""

    __slots__ = (
        "enclosures",
        "interval_seconds",
        "points",
        "_last_energy",
        "_last_time",
        "_next_sample",
    )

    _REBUILT = frozenset({"enclosures"})

    def __init__(
        self, enclosures: list[DiskEnclosure], interval_seconds: Seconds = 60.0
    ) -> None:
        if interval_seconds <= 0:
            raise ValidationError("interval_seconds must be positive")
        if not enclosures:
            raise ValidationError("at least one enclosure is required")
        self.enclosures = list(enclosures)
        self.interval_seconds = interval_seconds
        self.points: list[TimelinePoint] = []
        self._last_energy: dict[str, Joules] = {
            enc.name: 0.0 for enc in self.enclosures
        }
        self._last_time: Seconds = 0.0
        self._next_sample: Seconds = interval_seconds

    @property
    def next_sample_time(self) -> Seconds:
        """Time at which the next power sample is due."""
        return self._next_sample

    def sample(self, now: Seconds) -> TimelinePoint | None:
        """Record every interval boundary up to ``now``.

        Returns the latest new point, or None when called early.  Sparse
        callers (quiet traces) still get one point per boundary — the
        enclosures' energy timelines are settled to each boundary in
        order, so the per-interval powers are exact, not span averages.
        """
        point = None
        while self._next_sample <= now:
            point = self._record_point(self._next_sample)
            self._next_sample += self.interval_seconds
        return point

    def _record_point(self, at: Seconds) -> TimelinePoint:
        elapsed = at - self._last_time
        per_enclosure: dict[str, Watts] = {}
        total: Watts = 0.0
        for enclosure in self.enclosures:
            enclosure.settle(at)
            energy = enclosure.energy_joules()
            delta = energy - self._last_energy[enclosure.name]
            watts = delta / elapsed if elapsed > 0 else 0.0
            per_enclosure[enclosure.name] = watts
            total += watts
            self._last_energy[enclosure.name] = energy
        point = TimelinePoint(
            timestamp=at, total_watts=total, per_enclosure=per_enclosure
        )
        self.points.append(point)
        self._last_time = at
        return point

    def finish(self, now: Seconds) -> None:
        """Record remaining boundaries plus a final tail point."""
        self.sample(now)
        if now > self._last_time:
            self._record_point(now)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def total_series(self) -> list[tuple[Seconds, Watts]]:
        """(timestamp, total watts) pairs in time order."""
        return [(p.timestamp, p.total_watts) for p in self.points]

    def mean_watts(self) -> Watts:
        """Time-weighted mean of the recorded series."""
        if not self.points:
            return 0.0
        total_energy: Joules = 0.0
        total_time: Seconds = 0.0
        last: Seconds = 0.0
        for point in self.points:
            span = point.timestamp - last
            total_energy += point.total_watts * span
            total_time += span
            last = point.timestamp
        return total_energy / total_time if total_time > 0 else 0.0
