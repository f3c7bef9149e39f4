"""Power meter: aggregate energy accounting for a storage unit.

The paper attaches a physical power meter to the storage unit
(§VII-A.3) and reports the average power of the disk enclosures and the
storage controller separately (Figs 8, 11, 14).  :class:`PowerMeter`
computes the same quantities from the simulator's energy timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import ControllerPowerModel
from repro.units import Joules, Seconds, Watts


@dataclass(frozen=True)
class PowerReading:
    """Average power of a storage unit over a measurement window."""

    duration_seconds: Seconds
    enclosure_watts: Watts
    controller_watts: Watts
    enclosure_joules: Joules
    controller_joules: Joules

    @property
    def total_watts(self) -> Watts:
        """Combined enclosure and controller power, in watts."""
        return self.enclosure_watts + self.controller_watts

    @property
    def total_joules(self) -> Joules:
        """Combined enclosure and controller energy, in joules."""
        return self.enclosure_joules + self.controller_joules


class PowerMeter:
    """Reads average power off the enclosures' energy timelines."""

    def __init__(
        self,
        enclosures: list[DiskEnclosure],
        controller_model: ControllerPowerModel | None = None,
    ) -> None:
        if not enclosures:
            raise ValidationError("at least one enclosure is required")
        self.enclosures = list(enclosures)
        self.controller_model = controller_model or ControllerPowerModel()

    def read(self, now: Seconds, controller: StorageController | None = None) -> PowerReading:
        """Measure average power from time 0 to ``now``.

        Settles every enclosure's timeline to ``now`` first, so the
        reading is exact.  Controller I/O count comes from ``controller``
        when given (its cache traffic), else zero.
        """
        if now <= 0:
            raise ValidationError("measurement duration must be positive")
        enclosure_joules: Joules = 0.0
        for enclosure in self.enclosures:
            enclosure.settle(now)
            enclosure_joules += enclosure.energy_joules()
        io_count = controller.logical_io_count if controller is not None else 0
        controller_joules = self.controller_model.energy(now, io_count)
        return PowerReading(
            duration_seconds=now,
            enclosure_watts=enclosure_joules / now,
            controller_watts=controller_joules / now,
            enclosure_joules=enclosure_joules,
            controller_joules=controller_joules,
        )
