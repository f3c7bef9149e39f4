"""The "without power saving" reference configuration.

Enclosures never spin down; the storage serves I/O exactly as the
workload issues it.  This is the paper's left-most bar in every power
figure and the performance reference for the tpmC / query-response
conversions (§VII-A.5).
"""

from __future__ import annotations

from repro.actions.plan import ActionPlan
from repro.actions.records import SetPowerOffEnabled
from repro.baselines.base import PowerPolicy


class NoPowerSavingPolicy(PowerPolicy):
    """Do nothing: all enclosures stay powered, no migration, no cache
    reconfiguration."""

    __slots__ = ()

    name = "no-power-saving"

    def on_start(self, now: float) -> None:
        """Disable power-off on every enclosure (always-on baseline)."""
        context = self._require_context()
        self.executor().apply(
            now,
            ActionPlan(
                [
                    SetPowerOffEnabled(enclosure.name, False)
                    for enclosure in context.enclosures
                ]
            ),
        )

    def next_checkpoint(self) -> float | None:
        """Always ``None``: this baseline has no checkpoints."""
        return None

    def on_checkpoint(self, now: float) -> ActionPlan | None:  # pragma: no cover
        """Never called; the policy schedules no checkpoints."""
        raise AssertionError("no-power-saving policy has no checkpoints")
