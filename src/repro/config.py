"""Configuration for the energy-efficient storage management system.

:class:`EcoStorConfig` carries the paper's Table II parameter values
(break-even time, cache partition sizes, dirty-block rate, monitoring
period, the PDC/DDR baseline parameters, ...), and
:class:`SimulationScale` records how IOPS-denominated quantities are scaled
down so a full evaluation replays ~10^5 I/Os instead of the testbed's
10^7-10^8 (see DESIGN.md §2, "Scale note").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import units
from repro.errors import ConfigurationError
from repro.storage.power import (
    ControllerPowerModel,
    PowerModel,
)


@dataclass(frozen=True)
class SimulationScale:
    """Scale factor between testbed IOPS and simulated IOPS.

    The simulator keeps the paper's *durations* (virtual time is free) but
    issues fewer I/Os per second.  Every threshold measured in IOPS must be
    scaled by the same factor for the algorithms to behave identically:
    the per-enclosure service capacity ``O`` and DDR's TargetTH/LowTH.

    ``iops_factor = simulated IOPS / testbed IOPS``.
    """

    iops_factor: float = 1.0 / 900.0
    #: Data-size scale applied by the workload generators, so migration
    #: and preload volumes stay proportionate to the scaled I/O rates
    #: (a copy's wall-clock time is size / bandwidth, which does not
    #: scale with IOPS).
    size_factor: float = 1.0 / 8.0

    def __post_init__(self) -> None:
        if not 0 < self.iops_factor <= 1:
            raise ConfigurationError(
                f"iops_factor must be in (0, 1], got {self.iops_factor}"
            )
        if not 0 < self.size_factor <= 1:
            raise ConfigurationError(
                f"size_factor must be in (0, 1], got {self.size_factor}"
            )

    def iops(self, paper_value: float) -> float:
        """Scale a paper IOPS figure down to the simulated regime."""
        return paper_value * self.iops_factor


#: Scale used by the shipped experiments: 1/900 of testbed IOPS puts
#: DDR's LowTH at 0.25 simulated IOPS and one enclosure's planning IOPS
#: at 1.0, keeping the largest run (File Server, 6 h of virtual time)
#: around 1.3 x 10^5 replayed events.
DEFAULT_SCALE = SimulationScale()


@dataclass(frozen=True)
class EcoStorConfig:
    """Parameters of the proposed method (paper Table II) plus baselines.

    IOPS-valued fields are stored at *paper* (testbed) magnitude; call
    :meth:`scaled` to obtain a config whose IOPS fields match a
    :class:`SimulationScale`.
    """

    # --- power management (Table II) -----------------------------------
    break_even_time: float = 52.0
    #: Idle time after which a power-off-enabled enclosure spins down.
    #: The paper sets this equal to the break-even time.
    spin_down_timeout: float = 52.0
    #: Fraction of the break-even time between §V-D pattern-change
    #: trigger evaluations.  Trigger checks are cheap but run per I/O;
    #: a few per break-even period is enough to catch a pattern shift
    #: well before the energy balance of a wrong placement flips.
    trigger_check_fraction: float = 0.25
    #: Maximum IOPS one disk enclosure can serve for random I/O.
    max_iops_random: float = 900.0
    #: Maximum IOPS one disk enclosure can serve for sequential I/O.
    max_iops_sequential: float = 2800.0
    #: Usable volume size per disk enclosure.
    enclosure_size_bytes: int = int(1.7 * units.TB)
    #: Total battery-backed storage-cache capacity.
    storage_cache_bytes: int = 2 * units.GB
    #: Cache partition reserved for the write-delay function.
    write_delay_cache_bytes: int = 500 * units.MB
    #: Cache partition reserved for the preload function.
    preload_cache_bytes: int = 500 * units.MB
    #: Fraction of the write-delay partition that may hold dirty blocks
    #: before a bulk flush is triggered.
    dirty_block_rate: float = 0.5
    #: Multiplier applied to the average Long Interval when computing the
    #: next monitoring period (must be > 1; paper uses 1.2).
    monitoring_alpha: float = 1.2
    #: Initial monitoring period (ten times the break-even time).
    initial_monitoring_period: float = 520.0
    #: Upper bound on the adaptive monitoring period, to keep the manager
    #: responsive on workloads with very long intervals.
    max_monitoring_period: float = 2.0 * units.HOUR
    #: Average throughput allotted to data-item migration so application
    #: I/O is not disturbed (paper §V-A throttles migration; ~40 % of an
    #: enclosure's bulk bandwidth).
    migration_throughput_bps: float = 60.0 * units.MB
    #: Physical service headroom above the Table II planning IOPS.  The
    #: Table II "maximum IOPS" is the threshold placement plans against
    #: ("the capacity of the served IOPS"); a 15-HDD RAID-6 enclosure can
    #: physically burst above it, and without that headroom consolidating
    #: P3 items up to the planning bound would saturate the hot
    #: enclosures' queues — far beyond the paper's measured single-digit
    #: throughput loss.
    service_headroom: float = 2.0

    # --- fault tolerance (repro.faults) ---------------------------------
    #: Base wait of the controller's capped exponential backoff between
    #: spin-up retry attempts (virtual-time seconds).
    fault_backoff_base: float = 1.0
    #: Cap on a single backoff wait.
    fault_backoff_cap: float = 64.0
    #: Spin-up failures within the sliding window that trip degraded
    #: mode: the policy stops enabling power-off on that enclosure.
    spin_up_failure_threshold: int = 3
    #: Sliding window over which recent spin-up failures are counted.
    spin_up_failure_window: float = 30.0 * units.MINUTE
    #: Cool-down during which degraded mode keeps vetoing power-off
    #: enablement for a tripped enclosure.
    power_off_cooldown: float = 30.0 * units.MINUTE

    # --- multi-tier lifecycle (repro.storage.tiers) ---------------------
    #: Checkpoint period of the tiered lifecycle policy.
    tier_monitoring_period: float = 10.0 * units.MINUTE
    #: Half-life of the exponential temperature decay: an untouched
    #: item's temperature halves every ``tier_half_life`` seconds.
    tier_half_life: float = 30.0 * units.MINUTE
    #: Temperature (decayed access count, paper-magnitude IOPS regime)
    #: at or above which an item is HOT and belongs on flash.
    tier_hot_temperature: float = 1800.0
    #: Temperature below which an item is COLD; between the two
    #: thresholds the item is WARM and stays on powered HDD.
    tier_cold_temperature: float = 90.0
    #: Consecutive COLD checkpoint classifications before an item is
    #: FROZEN and becomes an archive candidate.
    tier_frozen_periods: int = 3
    #: Capacity of one flash-tier device.
    flash_capacity_bytes: int = int(0.25 * units.TB)
    #: Capacity of one archive-tier device.
    archive_capacity_bytes: int = int(10 * units.TB)

    # --- baselines ------------------------------------------------------
    #: PDC re-ranking period (paper: 30 min, from [11]).
    pdc_monitoring_period: float = 30.0 * units.MINUTE
    #: DDR target throughput threshold in IOPS (paper: 450).
    ddr_target_th: float = 450.0
    #: DDR monitoring period.  The paper reports ~90 000 placement
    #: determinations over 1.8-6 h runs, i.e. a sub-second period.
    ddr_monitoring_period: float = 0.25

    # --- hardware models ------------------------------------------------
    enclosure_power: PowerModel = field(default_factory=PowerModel)
    controller_power: ControllerPowerModel = field(
        default_factory=ControllerPowerModel
    )

    def __post_init__(self) -> None:
        if self.break_even_time <= 0:
            raise ConfigurationError("break_even_time must be positive")
        if self.spin_down_timeout < 0:
            raise ConfigurationError("spin_down_timeout must be non-negative")
        if not 0 < self.trigger_check_fraction <= 1:
            raise ConfigurationError(
                "trigger_check_fraction must be in (0, 1], got "
                f"{self.trigger_check_fraction}"
            )
        if self.monitoring_alpha <= 1.0:
            raise ConfigurationError(
                f"monitoring_alpha must be > 1, got {self.monitoring_alpha}"
            )
        if not 0 < self.dirty_block_rate <= 1:
            raise ConfigurationError(
                f"dirty_block_rate must be in (0, 1], got {self.dirty_block_rate}"
            )
        if self.initial_monitoring_period <= 0:
            raise ConfigurationError("initial_monitoring_period must be positive")
        reserved = self.write_delay_cache_bytes + self.preload_cache_bytes
        if reserved > self.storage_cache_bytes:
            raise ConfigurationError(
                "write-delay + preload partitions exceed the storage cache: "
                f"{reserved} > {self.storage_cache_bytes}"
            )
        if self.max_iops_random <= 0 or self.max_iops_sequential <= 0:
            raise ConfigurationError("IOPS capacities must be positive")
        if self.ddr_target_th <= 0:
            raise ConfigurationError("ddr_target_th must be positive")
        if self.service_headroom < 1.0:
            raise ConfigurationError(
                f"service_headroom must be >= 1, got {self.service_headroom}"
            )
        if self.fault_backoff_base <= 0 or (
            self.fault_backoff_cap < self.fault_backoff_base
        ):
            raise ConfigurationError(
                "fault backoff requires 0 < base <= cap, got "
                f"base={self.fault_backoff_base}, cap={self.fault_backoff_cap}"
            )
        if self.spin_up_failure_threshold < 1:
            raise ConfigurationError(
                "spin_up_failure_threshold must be >= 1, got "
                f"{self.spin_up_failure_threshold}"
            )
        if self.tier_monitoring_period <= 0 or self.tier_half_life <= 0:
            raise ConfigurationError(
                "tier_monitoring_period and tier_half_life must be positive, "
                f"got {self.tier_monitoring_period} and {self.tier_half_life}"
            )
        if not 0 < self.tier_cold_temperature < self.tier_hot_temperature:
            raise ConfigurationError(
                "tier temperatures must satisfy 0 < cold < hot, got "
                f"cold={self.tier_cold_temperature}, "
                f"hot={self.tier_hot_temperature}"
            )
        if self.tier_frozen_periods < 1:
            raise ConfigurationError(
                f"tier_frozen_periods must be >= 1, got {self.tier_frozen_periods}"
            )
        if self.flash_capacity_bytes <= 0 or self.archive_capacity_bytes <= 0:
            raise ConfigurationError(
                "flash_capacity_bytes and archive_capacity_bytes must be "
                f"positive, got {self.flash_capacity_bytes} and "
                f"{self.archive_capacity_bytes}"
            )
        if self.spin_up_failure_window <= 0 or self.power_off_cooldown <= 0:
            raise ConfigurationError(
                "spin_up_failure_window and power_off_cooldown must be "
                "positive, got "
                f"{self.spin_up_failure_window} and {self.power_off_cooldown}"
            )
        # The physical break-even of the power model should agree with the
        # algorithmic parameter to within 20 %, otherwise the placement
        # decisions optimise for the wrong hardware.
        physical = self.enclosure_power.break_even_time
        if abs(physical - self.break_even_time) > 0.2 * self.break_even_time:
            raise ConfigurationError(
                f"power model break-even ({physical:.1f} s) is inconsistent "
                f"with configured break_even_time ({self.break_even_time:.1f} s)"
            )

    @property
    def service_iops_random(self) -> float:
        """Physical random-I/O service rate of one enclosure."""
        return self.max_iops_random * self.service_headroom

    @property
    def service_iops_sequential(self) -> float:
        """Physical sequential-I/O service rate of one enclosure."""
        return self.max_iops_sequential * self.service_headroom

    def scaled(self, scale: SimulationScale = DEFAULT_SCALE) -> "EcoStorConfig":
        """Return a copy with IOPS-denominated fields scaled for simulation.

        Time- and byte-denominated fields are untouched (the simulator
        keeps real durations and real data sizes).
        """
        return replace(
            self,
            max_iops_random=scale.iops(self.max_iops_random),
            max_iops_sequential=scale.iops(self.max_iops_sequential),
            ddr_target_th=scale.iops(self.ddr_target_th),
            tier_hot_temperature=scale.iops(self.tier_hot_temperature),
            tier_cold_temperature=scale.iops(self.tier_cold_temperature),
        )


#: The paper's Table II configuration, at testbed magnitude.
PAPER_CONFIG = EcoStorConfig()

#: The same configuration scaled for the shipped simulations.
DEFAULT_CONFIG = PAPER_CONFIG.scaled()
