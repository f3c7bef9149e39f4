"""Zoned policy: different power-saving methods per enclosure group.

Paper §IX (future work): "improve and complete the implementation of
the power-saving system in an actual data center with **multiple energy
saving methods**."  Real datacenters mix tiers — a latency-critical OLTP
zone next to an archival zone — and want a different method per tier.

:class:`ZonedPolicy` composes existing :class:`PowerPolicy` instances,
giving each a *zone* (a subset of enclosures).  Each sub-policy sees a
zone-scoped view of the simulation: only its enclosures, only the data
items placed on them, and only the I/O addressed to those items.  Zone
boundaries are hard — no policy migrates data across zones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.actions.plan import ActionPlan
from repro.baselines.base import PowerPolicy
from repro.errors import ConfigurationError, SnapshotError
from repro.monitoring.application import ApplicationMonitor
from repro.monitoring.storage import StorageMonitor
from repro.simulation import SimulationContext
from repro.storage.enclosure import DiskEnclosure
from repro.storage.meter import PowerMeter
from repro.storage.virtualization import BlockVirtualization


@dataclass(frozen=True)
class Zone:
    """One enclosure group and the policy that manages it."""

    name: str
    enclosures: tuple[str, ...]
    policy: PowerPolicy


class _ZoneVirtualization:
    """Zone-scoped facade over the shared block virtualization.

    Exposes the subset API the policies use; mutation methods delegate
    to the real virtualization, so capacity accounting stays global.
    """

    def __init__(
        self, inner: BlockVirtualization, names: tuple[str, ...]
    ) -> None:
        self._inner = inner
        self._names = names

    @property
    def enclosure_names(self) -> list[str]:
        return list(self._names)

    def enclosures(self) -> list[DiskEnclosure]:
        return [self._inner.enclosure(name) for name in self._names]

    def enclosure(self, name: str) -> DiskEnclosure:
        if name not in self._names:
            raise ConfigurationError(
                f"enclosure {name!r} is outside this zone"
            )
        return self._inner.enclosure(name)

    def item_ids(self) -> list[str]:
        return [
            item
            for name in self._names
            for item in self._inner.items_on(name)
        ]

    def items_on(self, enclosure: str) -> list[str]:
        return self._inner.items_on(self.enclosure(enclosure).name)

    def item_size(self, item_id: str) -> int:
        return self._inner.item_size(item_id)

    def enclosure_of(self, item_id: str) -> DiskEnclosure:
        return self._inner.enclosure_of(item_id)

    def route(self, item_id: str) -> tuple[DiskEnclosure, str, int]:
        return self._inner.route(item_id)

    def used_bytes(self, enclosure: str) -> int:
        return self._inner.used_bytes(self.enclosure(enclosure).name)

    def free_bytes(self, enclosure: str) -> int:
        return self._inner.free_bytes(self.enclosure(enclosure).name)

    def has_item(self, item_id: str) -> bool:
        return self._inner.has_item(item_id)

    def resolve(self, item_id: str, offset: int) -> tuple[str, int]:
        return self._inner.resolve(item_id, offset)

    def move_item(self, item_id: str, target: str) -> tuple[str, str]:
        if target not in self._names:
            raise ConfigurationError(
                f"zone policies may not migrate across zones "
                f"(target {target!r})"
            )
        return self._inner.move_item(item_id, target)


class ZonedPolicy(PowerPolicy):
    """Runs one sub-policy per enclosure zone."""

    __slots__ = (
        "zones",
        "_item_zone",
    )

    name = "zoned"

    _REBUILT = PowerPolicy._REBUILT | {"zones", "_item_zone"}

    def __init__(self, zones: list[Zone]) -> None:
        super().__init__()
        if not zones:
            raise ConfigurationError("at least one zone is required")
        seen: set[str] = set()
        for zone in zones:
            overlap = seen & set(zone.enclosures)
            if overlap:
                raise ConfigurationError(
                    f"enclosures {sorted(overlap)} appear in two zones"
                )
            seen |= set(zone.enclosures)
        self.zones = list(zones)
        self._item_zone: dict[str, Zone] = {}

    # ------------------------------------------------------------------
    def bind(self, context: SimulationContext) -> None:
        """Bind each zone's inner policy to a zone-scoped sub-context."""
        super().bind(context)
        names = set(context.virtualization.enclosure_names)
        for zone in self.zones:
            missing = set(zone.enclosures) - names
            if missing:
                raise ConfigurationError(
                    f"zone {zone.name!r} references unknown enclosures "
                    f"{sorted(missing)}"
                )
            zone.policy.bind(self._zone_context(context, zone))

    def _zone_context(
        self, context: SimulationContext, zone: Zone
    ) -> SimulationContext:
        virtualization = _ZoneVirtualization(
            context.virtualization, zone.enclosures
        )
        enclosures = [
            context.virtualization.enclosure(name)
            for name in zone.enclosures
        ]
        # Zone-scoped monitors: each sub-policy windows the array's
        # trace on its own (classification drops other zones' items,
        # which are not in its virtualization) and meters its own
        # enclosures' physical I/O (routed in by the fan-out tap).
        zone_context = SimulationContext(
            config=context.config,
            virtualization=virtualization,  # type: ignore[arg-type]
            cache=context.cache,
            controller=context.controller,
            app_monitor=ApplicationMonitor(context.app_monitor),
            storage_monitor=StorageMonitor(
                enclosures, context.config.break_even_time
            ),
            meter=PowerMeter(enclosures, context.config.controller_power),
            # All zones share the parent executor: one action log, one
            # degraded-mode gate, one mutation path (zone enclosure sets
            # are disjoint, so gate state never aliases across zones).
            executor=context.executor,
            fault_clock=context.fault_clock,
        )
        return zone_context

    def _zone_of(self, item_id: str) -> Zone | None:
        zone = self._item_zone.get(item_id)
        if zone is not None:
            return zone
        context = self._require_context()
        if not context.virtualization.has_item(item_id):
            return None
        enclosure = context.virtualization.enclosure_of(item_id).name
        for candidate in self.zones:
            if enclosure in candidate.enclosures:
                self._item_zone[item_id] = candidate
                return candidate
        return None

    # ------------------------------------------------------------------
    # PowerPolicy interface: fan out to the zones
    # ------------------------------------------------------------------
    def _install_fan_out(self) -> None:
        """Tap physical I/O and fan it out per zone's monitor."""
        context = self._require_context()
        inner_tap = context.storage_monitor.on_physical_fast

        def fan_out(timestamp: float, enclosure: str, count: int) -> None:
            inner_tap(timestamp, enclosure, count)
            for zone in self.zones:
                if enclosure in zone.enclosures:
                    zone.policy.context.storage_monitor.on_physical_fast(
                        timestamp, enclosure, count
                    )
                    break

        context.controller.set_physical_tap(fan_out)

    def on_start(self, now: float) -> None:
        """Start every zone policy and fan monitoring out per zone."""
        self._install_fan_out()
        for zone in self.zones:
            zone.policy.on_start(now)
            zone.policy.context.app_monitor.begin_window(now)

    def next_checkpoint(self) -> float | None:
        """Earliest checkpoint requested by any zone policy."""
        times = [
            time
            for zone in self.zones
            if (time := zone.policy.next_checkpoint()) is not None
        ]
        return min(times) if times else None

    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """Run checkpoints for each zone whose deadline has passed."""
        applied = ActionPlan()
        for zone in self.zones:
            checkpoint = zone.policy.next_checkpoint()
            if checkpoint is not None and checkpoint <= now:
                zone_plan = zone.policy.on_checkpoint(now)
                if zone_plan:
                    applied.extend(zone_plan)
        self.determinations = sum(
            zone.policy.determinations for zone in self.zones
        )
        return applied or None

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
        """Route the I/O to the owning zone's policy."""
        zone = self._zone_of(item_id)
        if zone is None:
            return
        before = zone.policy.determinations
        zone.policy.after_io(
            timestamp, item_id, offset, size, is_read, sequential, response_time
        )
        self.determinations += zone.policy.determinations - before

    def on_end(self, now: float) -> None:
        """Finish every zone policy."""
        for zone in self.zones:
            zone.policy.on_end(now)

    # ------------------------------------------------------------------
    # Snapshot support (repro.persistence)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, Any]:
        """Capture the router cache plus every zone's sub-simulation.

        Each zone owns a private app monitor (its window over the
        array's trace) and storage monitor (built in
        :meth:`_zone_context`); they are invisible to the session-level
        capture, so the zoned planner snapshots them alongside the inner
        policies' own state.  Zones and the router cache hold
        references, so they travel by zone name.
        """
        state = super().snapshot_state()
        state["item_zone"] = {
            item: zone.name for item, zone in self._item_zone.items()
        }
        state["zones"] = {
            zone.name: {
                "policy": zone.policy.snapshot_state(),
                "app_monitor": (
                    zone.policy._require_context().app_monitor.snapshot_state()
                ),
                "storage_monitor": (
                    zone.policy._require_context()
                    .storage_monitor.snapshot_state()
                ),
            }
            for zone in self.zones
        }
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore every zone from :meth:`snapshot_state`'s capture.

        The policy must already be ``bind()``-ed (which rebuilds the
        zone sub-contexts); restoring also re-arms the physical-record
        fan-out tap that :meth:`on_start` installed in the original run.
        """
        state = dict(state)
        item_zone = state.pop("item_zone")
        zones = state.pop("zones")
        super().restore_state(state)
        by_name = {zone.name: zone for zone in self.zones}
        if set(zones) != set(by_name):
            raise SnapshotError(
                "snapshot zones do not match this policy's zones: "
                f"snapshot has {sorted(zones)}, "
                f"policy has {sorted(by_name)}"
            )
        for name, zone_state in zones.items():
            zone = by_name[name]
            zone.policy.restore_state(zone_state["policy"])
            zone_context = zone.policy._require_context()
            zone_context.app_monitor.restore_state(zone_state["app_monitor"])
            zone_context.storage_monitor.restore_state(
                zone_state["storage_monitor"]
            )
        self._item_zone = {
            item: by_name[name] for item, name in item_zone.items()
        }
        self._install_fan_out()
