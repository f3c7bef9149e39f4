"""Per-tier energy / capacity / latency books.

:class:`TierBooks` is a *stateless reader*: it owns no counters of its
own, but projects the books the storage layer already keeps — enclosure
energy integration, the virtualization layer's placement and
:class:`~repro.storage.tiers.TierLedger` byte books, the controller's
per-device service accumulators — onto the tier structure.  Because
nothing is accumulated twice, the tier report can never drift from the
underlying books, and the invariant auditor checks the same numbers.

A :class:`TierReport` is one tier's row: what it holds, what flowed
through it, what it cost (capacity cost units = placed bytes × the
tier's per-byte cost), and how much physical service time its devices
delivered.  Reports serialize to plain dicts for the CLI and the fleet
aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ValidationError
from repro.storage.controller import StorageController
from repro.storage.virtualization import BlockVirtualization

__all__ = ["TierBooks", "TierReport"]


@dataclass(frozen=True)
class TierReport:
    """One tier's energy / capacity / latency book entries."""

    tier: str
    kind: str
    devices: tuple[str, ...]
    capacity_bytes: int
    used_bytes: int
    replica_bytes: int
    bytes_in: int
    bytes_out: int
    energy_joules: float
    cost_units: float
    service_seconds: float
    serviced_ios: int

    @property
    def placed_bytes(self) -> int:
        """Bytes currently occupying the tier (primaries + replicas)."""
        return self.used_bytes + self.replica_bytes

    @property
    def net_bytes(self) -> int:
        """What the ledger says the tier holds: ``bytes_in − bytes_out``."""
        return self.bytes_in - self.bytes_out

    @property
    def mean_service_seconds(self) -> float:
        """Mean physical response time of I/Os served by this tier."""
        if self.serviced_ios == 0:
            return 0.0
        return self.service_seconds / self.serviced_ios

    def to_dict(self) -> dict[str, Any]:
        """Flatten to plain JSON types (derived fields included)."""
        return {
            "tier": self.tier,
            "kind": self.kind,
            "devices": list(self.devices),
            "capacity_bytes": self.capacity_bytes,
            "used_bytes": self.used_bytes,
            "replica_bytes": self.replica_bytes,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "energy_joules": self.energy_joules,
            "cost_units": self.cost_units,
            "service_seconds": self.service_seconds,
            "serviced_ios": self.serviced_ios,
            "placed_bytes": self.placed_bytes,
            "net_bytes": self.net_bytes,
            "mean_service_seconds": self.mean_service_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TierReport":
        """Rebuild a report row from :meth:`to_dict` output."""
        return cls(
            tier=data["tier"],
            kind=data["kind"],
            devices=tuple(data["devices"]),
            capacity_bytes=data["capacity_bytes"],
            used_bytes=data["used_bytes"],
            replica_bytes=data["replica_bytes"],
            bytes_in=data["bytes_in"],
            bytes_out=data["bytes_out"],
            energy_joules=data["energy_joules"],
            cost_units=data["cost_units"],
            service_seconds=data["service_seconds"],
            serviced_ios=data["serviced_ios"],
        )


class TierBooks:
    """Project the storage layer's books onto the tier structure."""

    def __init__(
        self,
        virtualization: BlockVirtualization,
        controller: StorageController,
    ) -> None:
        if controller.virtualization is not virtualization:
            raise ValidationError(
                "tier books need the controller of the same virtualization"
            )
        self._virtualization = virtualization
        self._controller = controller

    def report(self) -> list[TierReport]:
        """One :class:`TierReport` per tier, fastest tier first."""
        virt = self._virtualization
        controller = self._controller
        ledger = virt.tier_ledger
        reports = []
        for tier in sorted(
            virt.tiers(), key=lambda t: (t.kind.rank, t.name)
        ):
            used = 0
            replicas = 0
            capacity = 0
            energy = 0.0
            service_seconds = 0.0
            serviced_ios = 0
            for device in tier.devices:
                used += virt.used_bytes(device)
                replicas += virt.replica_bytes_on(device)
                capacity += virt.enclosure(device).capacity_bytes
                energy += virt.enclosure(device).energy_joules()
                service_seconds += controller.device_service_seconds(device)
                serviced_ios += controller.device_service_ios(device)
            reports.append(
                TierReport(
                    tier=tier.name,
                    kind=tier.kind.value,
                    devices=tier.devices,
                    capacity_bytes=capacity,
                    used_bytes=used,
                    replica_bytes=replicas,
                    bytes_in=ledger.bytes_in[tier.name],
                    bytes_out=ledger.bytes_out[tier.name],
                    energy_joules=energy,
                    cost_units=(used + replicas) * tier.cost_per_byte,
                    service_seconds=service_seconds,
                    serviced_ios=serviced_ios,
                )
            )
        return reports
