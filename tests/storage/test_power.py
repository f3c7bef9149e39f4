"""Tests for repro.storage.power."""

import pytest

from repro.errors import ConfigurationError
from repro.storage.power import (
    ControllerPowerModel,
    PowerModel,
    PowerState,
)


class TestPowerModelValidation:
    def test_default_is_valid(self):
        PowerModel()

    def test_off_above_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(idle_watts=100, off_watts=200)

    def test_idle_above_active_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(active_watts=100, idle_watts=200)

    def test_idle_equal_off_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(idle_watts=50, off_watts=50)

    def test_negative_transition_time_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(spin_up_seconds=-1)


class TestWatts:
    def test_each_state_has_configured_watts(self):
        model = PowerModel()
        assert model.watts(PowerState.ACTIVE) == model.active_watts
        assert model.watts(PowerState.IDLE) == model.idle_watts
        assert model.watts(PowerState.OFF) == model.off_watts
        assert model.watts(PowerState.SPIN_UP) == model.spin_up_watts
        assert model.watts(PowerState.SPIN_DOWN) == model.spin_down_watts

    def test_ordering(self):
        model = PowerModel()
        assert model.off_watts < model.idle_watts < model.active_watts


class TestBreakEven:
    def test_default_near_52s(self):
        assert PowerModel().break_even_time == pytest.approx(52.0, rel=0.05)

    def test_formula(self):
        model = PowerModel(
            active_watts=200,
            idle_watts=100,
            off_watts=0,
            spin_up_watts=1000,
            spin_up_seconds=10,
            spin_down_watts=0,
            spin_down_seconds=0,
        )
        # transition energy 10_000 J at 100 W idle-off delta => 100 s
        assert model.break_even_time == pytest.approx(100.0)

    def test_energy_if_idle_linear(self):
        model = PowerModel()
        assert model.energy_if_idle(10) == pytest.approx(
            10 * model.idle_watts
        )

    def test_energy_if_cycled_includes_transition(self):
        model = PowerModel()
        energy = model.energy_if_power_cycled(1000)
        expected = model.transition_energy + model.off_watts * (
            1000 - model.transition_seconds
        )
        assert energy == pytest.approx(expected)

    def test_cycling_a_tiny_gap_still_charges_full_transition(self):
        model = PowerModel()
        assert model.energy_if_power_cycled(1.0) >= model.transition_energy

    def test_power_off_saves_above_break_even(self):
        model = PowerModel()
        be = model.break_even_time
        assert model.power_off_saves(be * 1.5)
        assert not model.power_off_saves(be * 0.5)

    def test_break_even_is_the_indifference_point(self):
        model = PowerModel()
        be = model.break_even_time
        assert model.energy_if_idle(be) == pytest.approx(
            model.energy_if_power_cycled(be), rel=1e-9
        )

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            PowerModel().energy_if_idle(-1)
        with pytest.raises(ValueError):
            PowerModel().energy_if_power_cycled(-1)


class TestControllerPowerModel:
    def test_energy_accumulates_base_and_per_io(self):
        model = ControllerPowerModel(base_watts=100, joules_per_io=0.5)
        assert model.energy(10, 20) == pytest.approx(1000 + 10)

    def test_average_watts(self):
        model = ControllerPowerModel(base_watts=100, joules_per_io=0.0)
        assert model.average_watts(100, 0) == pytest.approx(100)

    def test_average_watts_zero_duration_returns_base(self):
        model = ControllerPowerModel(base_watts=100)
        assert model.average_watts(0, 0) == 100

    def test_negative_inputs_rejected(self):
        model = ControllerPowerModel()
        with pytest.raises(ValueError):
            model.energy(-1, 0)
        with pytest.raises(ValueError):
            model.energy(1, -1)
