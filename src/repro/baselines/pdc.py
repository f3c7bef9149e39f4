"""Popular Data Concentration (PDC) baseline.

Pinheiro & Bianchini's PDC [11] as the paper evaluates it (§VII-A.1):
a *logical* I/O-behaviour-based method that periodically (every 30 min)
ranks files by popularity and concentrates the most popular data on the
first disks, so the tail disks see little traffic and can spin down.
The data unit is "a file, not a data item" — in this codebase the same
object, since our data items are file/table grained.

Two properties the paper leans on emerge naturally from this
implementation:

* PDC re-sorts *everything* every period — it "also moves hot data
  between hot disk enclosures and cold data between cold disk
  enclosures" — which is why its migrated volume exceeds terabytes in
  Figs 10/13 while the proposed method moves only P3 items;
* PDC has no cache assistance, so its response times carry full
  spin-up penalties.
"""

from __future__ import annotations

from collections import defaultdict

from repro.actions.plan import ActionPlan
from repro.actions.records import MigrateItem, SetPowerOffEnabled
from repro.errors import ValidationError
from repro.baselines.base import PowerPolicy
from repro.simulation import SimulationContext


class PDCPolicy(PowerPolicy):
    """Popularity-ranked data concentration with periodic reshuffles."""

    __slots__ = (
        "monitoring_period",
        "load_fill_fraction",
        "_next_checkpoint",
        "_window_start",
        "_popularity",
    )

    name = "pdc"

    def __init__(
        self,
        monitoring_period: float | None = None,
        load_fill_fraction: float = 0.8,
    ) -> None:
        """``load_fill_fraction`` bounds how much of an enclosure's IOPS
        capacity the packing fills before spilling to the next disk —
        PDC packs by predicted load, not by bytes alone."""
        super().__init__()
        if not 0 < load_fill_fraction <= 1:
            raise ValidationError("load_fill_fraction must be in (0, 1]")
        self.monitoring_period = monitoring_period
        self.load_fill_fraction = load_fill_fraction
        self._next_checkpoint: float | None = None
        self._window_start = 0.0
        self._popularity: defaultdict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def on_start(self, now: float) -> None:
        """Read the PDC monitoring period and start the first window."""
        context = self._require_context()
        if self.monitoring_period is None:
            self.monitoring_period = context.config.pdc_monitoring_period
        self._next_checkpoint = now + self.monitoring_period
        self._window_start = now
        # PDC lets any disk spin down once its load drops (subject to
        # the executor's degraded-mode gate under fault injection).
        self.executor().apply(now, self._gate_plan(context))

    def _gate_plan(self, context: SimulationContext) -> ActionPlan:
        """Power-off enablement for every enclosure, as a plan."""
        return ActionPlan(
            [
                SetPowerOffEnabled(enclosure.name, True)
                for enclosure in context.enclosures
            ]
        )

    def next_checkpoint(self) -> float | None:
        """Time of the next PDC migration checkpoint."""
        return self._next_checkpoint

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
        """Count item popularity for the current window."""
        self._popularity[item_id] += 1

    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """Re-rank items by popularity and migrate across the array."""
        context = self._require_context()
        virt = context.virtualization
        config = context.config
        window = now - self._window_start
        if window <= 0:
            self._schedule_next(now)
            return None

        # Rank every placed item by popularity (this window's accesses).
        # Popularity is quantized into tiers, with ties broken by the
        # item's *current* placement: counting noise between
        # equal-popularity items must not reshuffle them every window,
        # or the resulting migration churn would keep every enclosure
        # awake permanently (the rank only matters across tiers).
        pops = self._popularity
        active_count = sum(1 for item in virt.item_ids() if pops.get(item, 0))
        mean_pop = (
            sum(pops.values()) / active_count if active_count else 1.0
        )
        quantum = max(1.0, 0.25 * mean_pop)
        enclosure_rank = {
            name: index for index, name in enumerate(virt.enclosure_names)
        }
        items = sorted(
            virt.item_ids(),
            key=lambda item: (
                -int(pops.get(item, 0) / quantum),
                enclosure_rank[virt.enclosure_of(item).name],
                item,
            ),
        )
        self.determinations += 1

        # Full re-layout in popularity order (PDC re-sorts everything —
        # "PDC also moves hot data between hot disk enclosures and cold
        # data between cold disk enclosures", which is why the paper
        # measures terabytes of PDC migration).  Active items (accessed
        # this window) pack onto the first disks by their measured load
        # against the planning-IOPS budget, bounded by disk capacity;
        # items untouched this window then spread across the *remaining*
        # disks by an even byte budget.
        names = virt.enclosure_names
        capacity = config.enclosure_size_bytes
        iops_budget = config.max_iops_random * self.load_fill_fraction
        plan = ActionPlan()

        active = [i for i in items if self._popularity.get(i, 0) > 0]
        inactive = [i for i in items if self._popularity.get(i, 0) == 0]

        index = 0
        used = 0
        load = 0.0
        for item in active:
            size = virt.item_size(item)
            item_iops = self._popularity[item] / window
            fits = used + size <= capacity and load + item_iops <= (
                iops_budget
            )
            if not fits and used > 0:
                # Next disk; an item that alone overflows an empty
                # disk's budget still gets placed (alone).
                index = min(index + 1, len(names) - 1)
                used = 0
                load = 0.0
            target = names[index]
            used += size
            load += item_iops
            if virt.enclosure_of(item).name != target:
                plan.add(MigrateItem(item, target))

        if inactive:
            first_tail = min(index + 1, len(names) - 1)
            remaining = names[first_tail:]
            total_inactive = sum(virt.item_size(i) for i in inactive)
            byte_budget = min(
                capacity,
                max(
                    1.2 * total_inactive / len(remaining),
                    max(virt.item_size(i) for i in inactive),
                ),
            )
            index = 0
            used = 0
            for item in inactive:
                size = virt.item_size(item)
                if used + size > byte_budget and used > 0:
                    index = min(index + 1, len(remaining) - 1)
                    used = 0
                target = remaining[index]
                used += size
                if virt.enclosure_of(item).name != target:
                    plan.add(MigrateItem(item, target))

        self.executor().apply(now, plan)

        # Re-evaluate the degraded-mode gate every period: an enclosure
        # whose spin-ups keep failing must stop spinning down for its
        # cool-down window, and re-qualifies automatically afterwards.
        gate_plan = self._gate_plan(context)
        self.executor().apply(now, gate_plan)

        self._popularity.clear()
        self._window_start = now
        self._schedule_next(now)
        plan.extend(gate_plan)
        return plan

    def _schedule_next(self, now: float) -> None:
        assert self.monitoring_period is not None
        self._next_checkpoint = now + self.monitoring_period
