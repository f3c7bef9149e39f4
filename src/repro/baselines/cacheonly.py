"""Cache-only interval control: the §VIII-A related-work baseline.

The paper's related work [6][7][8] enlarges I/O intervals purely at the
device level — buffer writes, prefetch reads, spin disks down — without
knowing anything about applications or data items.  §VIII-A argues this
is weak: "the storage's write function does not recognize the
applications' data items and delays all updated data.  This write
behavior consumes cache space ... since P3 data items are updated at a
high frequency, and shortens the write I/O intervals of cold disk
enclosures"; and for DSS, "these methods cannot decide on an appropriate
size to prefetch.  Therefore, the effect of power-saving by applying
only this method is not so good."

:class:`CacheOnlyPolicy` implements exactly that device-level strategy:

* every enclosure may spin down (no hot/cold knowledge);
* *all* data items are write-delayed — the controller's default
  write-behind, with hot items churning the shared dirty budget and
  forcing frequent bulk flushes everywhere;
* no migration, no preload (nothing knows which items are read-mostly).

It exists to reproduce the paper's argument quantitatively: see
``benchmarks/test_related_work.py``.
"""

from __future__ import annotations

from repro.actions.plan import ActionPlan
from repro.actions.records import EnableWriteDelay, SetPowerOffEnabled
from repro.errors import ValidationError
from repro.baselines.base import PowerPolicy


class CacheOnlyPolicy(PowerPolicy):
    """Device-level interval control: write-behind + spin-down only."""

    __slots__ = (
        "refresh_period",
        "_next_checkpoint",
    )

    name = "cache-only"

    def __init__(self, refresh_period: float = 300.0) -> None:
        super().__init__()
        if refresh_period <= 0:
            raise ValidationError("refresh_period must be positive")
        self.refresh_period = refresh_period
        self._next_checkpoint: float | None = None

    def on_start(self, now: float) -> None:
        """Enable power-off everywhere and write-delay the whole item set."""
        context = self._require_context()
        plan = ActionPlan(
            [
                SetPowerOffEnabled(enclosure.name, True)
                for enclosure in context.enclosures
            ]
        )
        plan.add(self._select_everything())
        self.executor().apply(now, plan)
        self._next_checkpoint = now + self.refresh_period

    def _select_everything(self) -> EnableWriteDelay:
        """Write-delay every placed item — the storage cannot tell a
        busy master table from a dormant archive."""
        context = self._require_context()
        return EnableWriteDelay(
            tuple(context.virtualization.item_ids())
        )

    def next_checkpoint(self) -> float | None:
        """Time of the next periodic cache refresh."""
        return self._next_checkpoint

    def on_checkpoint(self, now: float) -> ActionPlan | None:
        # Re-sweep the item set (new items may have appeared); this is
        # cache housekeeping, not a placement determination.
        """Refresh the write-delay selection for the next period."""
        plan = ActionPlan([self._select_everything()])
        self.executor().apply(now, plan)
        self._next_checkpoint = now + self.refresh_period
        return plan
