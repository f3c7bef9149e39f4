"""Dynamic Data Reorganization (DDR) baseline.

Otoo, Rotem & Tsao's DDR [15] as the paper evaluates it (§VII-A.1): a
*physical* I/O-behaviour-based method.  Every short monitoring period
(sub-second — the paper reports ~90 000 placement determinations per
run) it classifies disk enclosures by their served IOPS against two
thresholds derived from ``TargetTH`` (Table II: 450 IOPS):

* enclosures whose smoothed IOPS falls below ``LowTH = TargetTH / 2``
  are *cold*: they may spin down, and physical blocks accessed on them
  are migrated to hot enclosures ("DDR only migrates physical blocks in
  cold disk enclosures to hot disk enclosures when the physical blocks
  ... are accessed");
* the rest are *hot* and stay powered.

Block moves are charged as migration I/O and counted in the
migrated-bytes figure.  The block-grained remapping itself is not
simulated: our virtualization is item-grained, and the traces touch so
wide an address space that re-accessing a just-moved block is rare —
which is also why the paper measures DDR's migrated volume in single
gigabytes (see EXPERIMENTS.md, "Substitutions").
"""

from __future__ import annotations

import math

from repro.actions.plan import ActionPlan
from repro.actions.records import ChargeBlockMigration, SetPowerOffEnabled
from repro.errors import ValidationError
from repro.baselines.base import PowerPolicy


class DDRPolicy(PowerPolicy):
    """Threshold-based physical reorganization with spin-down."""

    name = "ddr"

    def __init__(
        self,
        monitoring_period: float | None = None,
        target_th: float | None = None,
        iops_smoothing_seconds: float = 60.0,
    ) -> None:
        super().__init__()
        if iops_smoothing_seconds <= 0:
            raise ValidationError("iops_smoothing_seconds must be positive")
        self.monitoring_period = monitoring_period
        self.target_th = target_th
        self.iops_smoothing_seconds = iops_smoothing_seconds
        self._next_checkpoint: float | None = None
        self._window_start = 0.0
        self._smoothed_iops: dict[str, float] = {}
        self._cold: set[str] = set()
        self.blocks_migrated = 0

    @property
    def low_th(self) -> float:
        """Lower IOPS threshold (half the configured target)."""
        assert self.target_th is not None
        return self.target_th / 2.0

    # ------------------------------------------------------------------
    def on_start(self, now: float) -> None:
        """Read DDR thresholds from the config and start the first window."""
        context = self._require_context()
        if self.monitoring_period is None:
            self.monitoring_period = context.config.ddr_monitoring_period
        if self.target_th is None:
            self.target_th = context.config.ddr_target_th
        self._next_checkpoint = now + self.monitoring_period
        self._window_start = now
        self._smoothed_iops = {
            name: 0.0 for name in context.virtualization.enclosure_names
        }
        # Nothing is cold until measured.
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
        """Time of the next DDR monitoring checkpoint."""
        return self._next_checkpoint

    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """Classify enclosures hot or cold by smoothed IOPS; toggle power-off.

        Power-off enablement is planned only while some enclosure is or
        was cold: with both cold sets empty the plan would be empty.
        """
        context = self._require_context()
        window = now - self._window_start
        assert self.monitoring_period is not None and self.target_th is not None
        if window <= 0:
            self._next_checkpoint = now + self.monitoring_period
            return None
        # Exponentially smoothed IOPS with ~iops_smoothing_seconds
        # time constant: DDR's placement decisions are sub-second but
        # its hot/cold judgement reflects sustained load, otherwise any
        # quiet quarter-second would flap every enclosure cold.  One
        # pass over the table ``on_start`` seeded, reading the monitor's
        # window counts directly: ``count / window`` is the window's IOPS.
        alpha = min(1.0, window / self.iops_smoothing_seconds)
        keep = 1 - alpha
        low_th = self.target_th / 2.0
        counts = context.storage_monitor.window_counts
        smoothed_iops = self._smoothed_iops
        cold: set[str] = set()
        for name, previous in smoothed_iops.items():
            smoothed = keep * previous + alpha * (counts.get(name, 0) / window)
            smoothed_iops[name] = smoothed
            if smoothed < low_th:
                cold.add(name)
        self.determinations += 1

        # Power-off decisions go through the executor's degraded-mode
        # gate: a cold enclosure whose spin-ups keep failing is vetoed
        # for a cool-down window (repro.faults); without faults the gate
        # is a pass-through.  A still-cold enclosure is re-enabled at
        # every checkpoint, so power-off returns once a veto's cool-down
        # ends; enclosures neither cold nor leaving the cold set are left
        # untouched.
        plan: ActionPlan | None = None
        if cold or self._cold:
            plan = ActionPlan()
            for enclosure in context.enclosures:
                if enclosure.name in cold:
                    plan.add(SetPowerOffEnabled(enclosure.name, True))
                elif enclosure.name in self._cold:
                    plan.add(SetPowerOffEnabled(enclosure.name, False))
            self.executor().apply(now, plan)
        self._cold = cold

        context.storage_monitor.begin_window(now)
        self._window_start = now
        self._next_checkpoint = now + self.monitoring_period
        return plan or None

    def io_gate(self) -> float:
        """``-inf`` while some enclosure is cold, else ``inf``.

        :meth:`after_io` acts only on access to a cold enclosure, and
        the cold set changes only at checkpoints.
        """
        return -math.inf if self._cold else math.inf

    def after_io(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
        response_time: float,
    ) -> None:
        """On access to data on a cold enclosure, migrate those blocks.

        The copy is charged to the source (read) and the least-loaded
        hot enclosure (write) and counted as migrated data.
        """
        # Nothing to migrate while no enclosure is cold (see io_gate).
        if self._cold:
            self._on_access(timestamp, item_id, size)

    def _on_access(self, now: float, item_id: str, size: int) -> None:
        virt = self._require_context().virtualization
        source = virt.enclosure_of(item_id)
        if source.name not in self._cold:
            return
        hot = [
            name
            for name in virt.enclosure_names
            if name not in self._cold
        ]
        if not hot:
            return
        target_name = min(hot, key=lambda n: self._smoothed_iops.get(n, 0.0))
        self.executor().apply(
            now,
            ActionPlan(
                [
                    ChargeBlockMigration(
                        item_id,
                        size,
                        source.name,
                        target_name,
                    )
                ]
            ),
        )
        self.blocks_migrated += 1
