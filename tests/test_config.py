"""Tests for repro.config."""

from dataclasses import replace

import pytest

from repro import units
from repro.baselines.ddr import DDRPolicy
from repro.config import (
    DEFAULT_CONFIG,
    DEFAULT_SCALE,
    PAPER_CONFIG,
    EcoStorConfig,
    SimulationScale,
)
from repro.errors import ConfigurationError
from repro.storage.cache import PAGE_BYTES, StorageCache


class TestPaperConfig:
    """Table II values must be encoded exactly."""

    def test_break_even_time(self):
        assert PAPER_CONFIG.break_even_time == 52.0

    def test_spin_down_timeout_equals_break_even(self):
        assert PAPER_CONFIG.spin_down_timeout == PAPER_CONFIG.break_even_time

    def test_max_iops(self):
        assert PAPER_CONFIG.max_iops_random == 900.0
        assert PAPER_CONFIG.max_iops_sequential == 2800.0

    def test_cache_partitions(self):
        assert PAPER_CONFIG.storage_cache_bytes == 2 * units.GB
        assert PAPER_CONFIG.write_delay_cache_bytes == 500 * units.MB
        assert PAPER_CONFIG.preload_cache_bytes == 500 * units.MB

    def test_dirty_block_rate(self):
        assert PAPER_CONFIG.dirty_block_rate == 0.5

    def test_alpha(self):
        assert PAPER_CONFIG.monitoring_alpha == 1.2

    def test_initial_period_is_ten_break_evens(self):
        assert PAPER_CONFIG.initial_monitoring_period == 520.0

    def test_pdc_period(self):
        assert PAPER_CONFIG.pdc_monitoring_period == 30 * units.MINUTE

    def test_ddr_target_th(self):
        assert PAPER_CONFIG.ddr_target_th == 450.0

    def test_ddr_low_th_is_half_target(self):
        assert DDRPolicy(target_th=PAPER_CONFIG.ddr_target_th).low_th == 225.0

    def test_enclosure_size(self):
        assert PAPER_CONFIG.enclosure_size_bytes == int(1.7 * units.TB)

    def test_lru_cache_is_remainder(self):
        cache = StorageCache(
            PAPER_CONFIG.storage_cache_bytes,
            PAPER_CONFIG.preload_cache_bytes,
            PAPER_CONFIG.write_delay_cache_bytes,
        )
        remainder = 2 * units.GB - 1000 * units.MB
        assert cache.lru.capacity_pages == remainder // PAGE_BYTES

    def test_physical_break_even_consistent(self):
        physical = PAPER_CONFIG.enclosure_power.break_even_time
        assert physical == pytest.approx(52.0, rel=0.05)


class TestValidation:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            replace(PAPER_CONFIG, monitoring_alpha=1.0)

    def test_negative_break_even_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(PAPER_CONFIG, break_even_time=-1.0)

    def test_cache_partition_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(
                PAPER_CONFIG,
                write_delay_cache_bytes=PAPER_CONFIG.storage_cache_bytes,
                preload_cache_bytes=PAPER_CONFIG.storage_cache_bytes,
            )

    def test_dirty_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            replace(PAPER_CONFIG, dirty_block_rate=0.0)
        with pytest.raises(ConfigurationError):
            replace(PAPER_CONFIG, dirty_block_rate=1.5)

    def test_service_headroom_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(PAPER_CONFIG, service_headroom=0.5)

    def test_inconsistent_power_model_rejected(self):
        # A configured break-even wildly off the power model's physical
        # break-even means the placement optimises the wrong hardware.
        with pytest.raises(ConfigurationError):
            replace(
                PAPER_CONFIG,
                break_even_time=500.0,
                spin_down_timeout=500.0,
                initial_monitoring_period=5000.0,
            )


class TestSimulationScale:
    def test_default_factor(self):
        assert DEFAULT_SCALE.iops_factor == pytest.approx(1 / 900)

    def test_iops_scaling(self):
        scale = SimulationScale(iops_factor=0.5)
        assert scale.iops(900) == 450.0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationScale(iops_factor=0.0)
        with pytest.raises(ConfigurationError):
            SimulationScale(iops_factor=2.0)

    def test_size_factor_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationScale(size_factor=0.0)


class TestScaledConfig:
    def test_scaled_iops_fields(self):
        assert DEFAULT_CONFIG.max_iops_random == pytest.approx(1.0)
        assert DEFAULT_CONFIG.max_iops_sequential == pytest.approx(2800 / 900)
        assert DEFAULT_CONFIG.ddr_target_th == pytest.approx(0.5)

    def test_time_fields_unscaled(self):
        assert DEFAULT_CONFIG.break_even_time == PAPER_CONFIG.break_even_time
        assert (
            DEFAULT_CONFIG.initial_monitoring_period
            == PAPER_CONFIG.initial_monitoring_period
        )

    def test_byte_fields_unscaled(self):
        assert (
            DEFAULT_CONFIG.storage_cache_bytes
            == PAPER_CONFIG.storage_cache_bytes
        )

    def test_service_rates_include_headroom(self):
        assert DEFAULT_CONFIG.service_iops_random == pytest.approx(
            DEFAULT_CONFIG.max_iops_random * DEFAULT_CONFIG.service_headroom
        )

    def test_scaled_is_new_object(self):
        assert PAPER_CONFIG.scaled() is not PAPER_CONFIG
        assert isinstance(PAPER_CONFIG.scaled(), EcoStorConfig)
