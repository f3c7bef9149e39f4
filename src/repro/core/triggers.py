"""Runtime I/O-pattern-change triggers (paper §V-D).

The power-management function normally runs at the end of each
monitoring period, but two conditions force it to run immediately, so
the method keeps saving energy when the workload shifts mid-period:

i.  a **hot** enclosure develops an I/O interval longer than the
    break-even time — it may have turned cold;
ii. a **cold** enclosure has been powered on more than
    ``m = 2 × (t_c − t_e) / l_b`` times since the previous management
    point ``t_e`` (``l_b`` is the break-even time) — it is being woken
    too often to be worth powering off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.capture import SlotValue
from repro.errors import ValidationError
from repro.monitoring.storage import StorageMonitor


@dataclass(frozen=True)
class TriggerResult:
    """Outcome of a trigger check."""

    fired: bool
    reason: str = ""


class PatternChangeTriggers(SlotValue):
    """Evaluates the §V-D early-recomputation conditions.

    Instances compare equal with equal break-even time and
    management-run mark.
    """

    __slots__ = ("break_even_time", "_period_end")

    def __init__(self, break_even_time: float) -> None:
        if break_even_time <= 0:
            raise ValidationError("break_even_time must be positive")
        self.break_even_time = break_even_time
        self._period_end = 0.0

    def reset(self, period_end_time: float) -> None:
        """Mark the end of a management run (the paper's ``t_e``)."""
        self._period_end = period_end_time

    def allowed_spin_ups(self, now: float) -> float:
        """The §V-D bound ``m = 2 × (t_c − t_e) / l_b``."""
        return 2.0 * (now - self._period_end) / self.break_even_time

    def check(
        self,
        now: float,
        hot: Sequence[str],
        cold: Sequence[str],
        storage_monitor: StorageMonitor,
    ) -> TriggerResult:
        """Evaluate both conditions at virtual time ``now``.

        Both conditions are suppressed until one break-even time has
        elapsed since the last management run: earlier than that the
        spin-up budget ``m`` is below 2, so a single (expected) wake-up
        of a cold enclosure would re-trigger management in a storm.
        """
        if now - self._period_end <= self.break_even_time:
            return TriggerResult(False)
        for name in hot:
            last = storage_monitor.last_io_time(name)
            reference = last if last is not None else self._period_end
            if now - reference > self.break_even_time:
                return TriggerResult(
                    True,
                    f"hot enclosure {name} idle longer than break-even",
                )
        budget = self.allowed_spin_ups(now)
        for name in cold:
            spin_ups = storage_monitor.spin_ups_since(name, self._period_end)
            if spin_ups > budget:
                return TriggerResult(
                    True,
                    f"cold enclosure {name} spun up {spin_ups} times "
                    f"(budget {budget:.1f})",
                )
        return TriggerResult(False)
