"""Power model for disk enclosures.

The paper's storage model (§II-A, §II-B) treats the **disk enclosure** as
the power-saving unit.  An enclosure is in one of three logical power modes
(*Active*, *Idle*, *Power off*); physically a transition through spin-up /
spin-down consumes extra time and energy, which gives rise to the
**break-even time**: the minimum I/O interval for which powering off saves
energy compared with staying idle.

This module defines :class:`PowerState`, the wattage table
:class:`PowerModel`, and the break-even derivation.  The default model is
calibrated so that the physical break-even time is ~52 s, matching the
paper's Table II value for the Hitachi AMS 2500 testbed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, ValidationError
from repro.units import Joules, Seconds, Watts


class PowerState(enum.Enum):
    """Physical power state of a disk enclosure."""

    ACTIVE = "active"
    IDLE = "idle"
    SPIN_DOWN = "spin_down"
    OFF = "off"
    SPIN_UP = "spin_up"

    # Members are singletons (equality is identity), so identity hashing
    # is equivalent to Enum's name-based hash — minus a Python-level
    # call on every dict/set lookup.  The enclosure energy timeline
    # indexes per-state tables several times per served I/O, which makes
    # this the hottest hash in the whole replay loop.  Reading a member
    # off the class costs too: on CPython 3.11 ``PowerState.IDLE`` goes
    # through ``EnumType.__getattr__`` (about ten times a global load),
    # so the per-I/O code reads module constants bound once at import
    # (``storage/enclosure.py``'s ``_ACTIVE`` … ``_SPIN_UP``).
    __hash__ = object.__hash__


#: The legal power-state transition graph of a disk enclosure
#: (§II-A / DiskEnclosure's state machine)::
#:
#:     ACTIVE ⇄ IDLE → SPIN_DOWN → OFF → SPIN_UP → IDLE or ACTIVE
#:
#: Every state change performed by the simulator must be an edge of this
#: graph.  ``ecostor check`` reads this table (rule R4) to flag code
#: that fabricates transitions outside the :class:`DiskEnclosure` API.
LEGAL_TRANSITIONS: frozenset[tuple[PowerState, PowerState]] = frozenset(
    {
        (PowerState.ACTIVE, PowerState.IDLE),
        (PowerState.IDLE, PowerState.ACTIVE),
        (PowerState.IDLE, PowerState.SPIN_DOWN),
        (PowerState.SPIN_DOWN, PowerState.OFF),
        (PowerState.OFF, PowerState.SPIN_UP),
        (PowerState.SPIN_UP, PowerState.IDLE),
        (PowerState.SPIN_UP, PowerState.ACTIVE),
        # A spin-up attempt can *fail* under fault injection
        # (repro.faults): the motor spins back down and the enclosure
        # returns to OFF, having burned the attempt's time and energy.
        (PowerState.SPIN_UP, PowerState.OFF),
    }
)


#: The :class:`PowerModel` field holding each state's wattage.
_WATTS_FIELD: dict[PowerState, str] = {
    PowerState.ACTIVE: "active_watts",
    PowerState.IDLE: "idle_watts",
    PowerState.SPIN_DOWN: "spin_down_watts",
    PowerState.OFF: "off_watts",
    PowerState.SPIN_UP: "spin_up_watts",
}


def can_transition(source: PowerState, target: PowerState) -> bool:
    """Whether ``source → target`` is an edge of the legal state graph.

    >>> can_transition(PowerState.IDLE, PowerState.SPIN_DOWN)
    True
    >>> can_transition(PowerState.OFF, PowerState.ACTIVE)
    False
    """
    return (source, target) in LEGAL_TRANSITIONS


@dataclass(frozen=True)
class PowerModel:
    """Wattage table and transition costs for one disk enclosure.

    All powers are in watts, times in seconds, energies in joules.

    The defaults describe one enclosure of the paper's testbed (15 × 7200
    rpm SATA HDD, RAID-6) and are calibrated so that
    :attr:`break_even_time` ≈ 52 s (paper Table II).
    """

    active_watts: Watts = 270.0
    idle_watts: Watts = 235.0
    off_watts: Watts = 12.0
    spin_up_watts: Watts = 1120.0
    spin_up_seconds: Seconds = 10.0
    spin_down_watts: Watts = 150.0
    spin_down_seconds: Seconds = 4.0

    def __post_init__(self) -> None:
        if not (0 <= self.off_watts <= self.idle_watts <= self.active_watts):
            raise ConfigurationError(
                "power model requires 0 <= off <= idle <= active watts, got "
                f"off={self.off_watts}, idle={self.idle_watts}, "
                f"active={self.active_watts}"
            )
        if self.spin_up_seconds < 0 or self.spin_down_seconds < 0:
            raise ConfigurationError("transition times must be non-negative")
        if self.spin_up_watts < 0 or self.spin_down_watts < 0:
            raise ConfigurationError("transition powers must be non-negative")
        if math.isclose(self.idle_watts, self.off_watts):
            raise ConfigurationError(
                "idle and off watts must differ for a break-even time to exist"
            )

    def watts(self, state: PowerState) -> Watts:
        """Power draw of the enclosure in ``state``."""
        return getattr(self, _WATTS_FIELD[state])

    @property
    def transition_energy(self) -> Joules:
        """Total energy of one spin-down + spin-up cycle, in joules."""
        return (
            self.spin_up_watts * self.spin_up_seconds
            + self.spin_down_watts * self.spin_down_seconds
        )

    @property
    def transition_seconds(self) -> Seconds:
        """Total time of one spin-down + spin-up cycle."""
        return self.spin_up_seconds + self.spin_down_seconds

    @property
    def break_even_time(self) -> Seconds:
        """Minimum idle gap (seconds) for which power-off saves energy.

        Staying idle for a gap of length ``t`` costs ``idle × t``.
        Powering off costs the transition energy plus ``off`` watts for the
        remainder of the gap.  Equating the two:

        ``t_be = (E_transition − off × t_transition) / (idle − off)``
        """
        extra = self.transition_energy - self.off_watts * self.transition_seconds
        return extra / (self.idle_watts - self.off_watts)

    def energy_if_idle(self, gap_seconds: Seconds) -> Joules:
        """Energy consumed by staying idle across a gap of this length."""
        if gap_seconds < 0:
            raise ValidationError("gap must be non-negative")
        return self.idle_watts * gap_seconds

    def energy_if_power_cycled(self, gap_seconds: Seconds) -> Joules:
        """Energy consumed by spinning down and back up across a gap.

        If the gap is shorter than the combined transition time the cycle
        cannot complete; the model charges the full transition energy
        anyway (the disk must still finish spinning up), which correctly
        penalises cycling across too-short gaps.
        """
        if gap_seconds < 0:
            raise ValidationError("gap must be non-negative")
        off_time = max(0.0, gap_seconds - self.transition_seconds)
        return self.transition_energy + self.off_watts * off_time

    def power_off_saves(self, gap_seconds: Seconds) -> bool:
        """Whether cycling power across this gap beats staying idle."""
        return self.energy_if_power_cycled(gap_seconds) < self.energy_if_idle(
            gap_seconds
        )


@dataclass(frozen=True)
class ControllerPowerModel:
    """Power model of the RAID controller / cache unit.

    The controller stays powered regardless of enclosure states (it hosts
    the battery-backed cache).  The paper's figures show its bar as nearly
    constant across policies; we model a constant base draw plus a small
    per-I/O increment so heavy cache traffic registers slightly.
    """

    base_watts: Watts = 520.0
    joules_per_io: Joules = 0.02

    def energy(self, duration_seconds: Seconds, io_count: int) -> Joules:
        """Total controller energy over a run."""
        if duration_seconds < 0:
            raise ValidationError("duration must be non-negative")
        if io_count < 0:
            raise ValidationError("io_count must be non-negative")
        return self.base_watts * duration_seconds + self.joules_per_io * io_count

    def average_watts(self, duration_seconds: Seconds, io_count: int) -> Watts:
        """Average controller power over a run."""
        if duration_seconds <= 0:
            return self.base_watts
        return self.energy(duration_seconds, io_count) / duration_seconds


#: Default enclosure power model used by the testbed (break-even ≈ 52 s).
DEFAULT_POWER_MODEL = PowerModel()

#: An all-flash enclosure (paper §VIII-D: "Power consumption of SSDs is
#: much smaller than that of HDDs.  Since our proposed approach utilizes
#: the application's I/O behaviors ... it can be applied easily to SSD
#: storage").  No platters: the "spin-up" models controller/flash
#: power-state latching, so the break-even time collapses to ~4 s and
#: far shorter Long Intervals become exploitable.
SSD_POWER_MODEL = PowerModel(
    active_watts=95.0,
    idle_watts=38.0,
    off_watts=2.0,
    spin_up_watts=150.0,
    spin_up_seconds=1.0,
    spin_down_watts=20.0,
    spin_down_seconds=0.5,
)

#: Default controller power model.
DEFAULT_CONTROLLER_POWER_MODEL = ControllerPowerModel()
