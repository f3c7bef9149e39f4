"""Tests for repro.storage.enclosure — the power-state machine."""

import pytest

from repro.storage.enclosure import DiskEnclosure, IOResult
from repro.storage.power import PowerModel, PowerState


def enclosure(**kwargs) -> DiskEnclosure:
    defaults = dict(
        name="e0",
        iops_random=2.0,
        iops_sequential=6.0,
        capacity_bytes=10**12,
        spin_down_timeout=52.0,
    )
    defaults.update(kwargs)
    return DiskEnclosure(**defaults)


class TestConstruction:
    def test_initial_state_idle(self):
        assert enclosure().state is PowerState.IDLE

    def test_power_off_disabled_initially(self):
        assert not enclosure().power_off_enabled

    def test_invalid_iops_rejected(self):
        with pytest.raises(ValueError):
            enclosure(iops_random=0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            enclosure(spin_down_timeout=-1)


class TestServiceTime:
    def test_random_rate(self):
        assert enclosure().service_time(1, sequential=False) == 0.5

    def test_sequential_rate(self):
        assert enclosure().service_time(3, sequential=True) == pytest.approx(0.5)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            enclosure().service_time(0, sequential=False)


class TestSubmit:
    def test_response_is_service_time_when_idle(self):
        enc = enclosure()
        result = enc.submit(10.0)
        assert result.response_time == pytest.approx(0.5)
        assert result.wait_time == 0.0

    def test_queueing_behind_prior_io(self):
        enc = enclosure()
        first = enc.submit(10.0)
        second = enc.submit(10.0)
        assert second.start == pytest.approx(first.completion)
        assert second.response_time == pytest.approx(1.0)

    def test_no_queueing_across_wide_gaps(self):
        enc = enclosure()
        enc.submit(10.0)
        later = enc.submit(100.0)
        assert later.wait_time == 0.0

    def test_read_write_counters(self):
        enc = enclosure()
        enc.submit(1.0, read=True)
        enc.submit(2.0, read=False)
        enc.submit(3.0, read=False)
        assert enc.read_count == 1
        assert enc.write_count == 2
        assert enc.io_count == 3

    def test_batch_mean_response(self):
        enc = enclosure()
        result = enc.submit(0.0, count=4)
        # wait 0, service 2.0 => mean = 2.0 * 5 / 8
        assert result.mean_response_time == pytest.approx(2.0 * 5 / 8)

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError):
            enclosure().submit(0.0, count=0)


class TestSpinDown:
    def test_no_spin_down_when_disabled(self):
        enc = enclosure()
        enc.submit(0.0)
        enc.settle(10_000.0)
        assert enc.state is PowerState.IDLE
        assert enc.spin_down_count == 0

    def test_spin_down_after_timeout_when_enabled(self):
        enc = enclosure()
        enc.submit(0.0)
        enc.enable_power_off(1.0)
        enc.settle(200.0)
        assert enc.state is PowerState.OFF
        assert enc.spin_down_count == 1

    def test_spin_down_happens_at_timeout_boundary(self):
        enc = enclosure()
        result = enc.submit(0.0)
        enc.enable_power_off(result.completion)
        # Just before the timeout elapses: still idle.
        enc.settle(result.completion + 51.9)
        assert enc.state is PowerState.IDLE
        # Past timeout + spin-down duration: off.
        enc.settle(result.completion + 52.0 + enc.power_model.spin_down_seconds + 0.1)
        assert enc.state is PowerState.OFF

    def test_disable_preserves_off_state_until_next_io(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        enc.settle(500.0)
        assert enc.state is PowerState.OFF
        enc.disable_power_off(600.0)
        enc.settle(10_000.0)
        assert enc.state is PowerState.OFF
        enc.submit(10_001.0)
        enc.settle(10_050.0)
        assert enc.state in (PowerState.ACTIVE, PowerState.IDLE)

    def test_enable_power_off_restarts_idle_clock(self):
        enc = enclosure()
        enc.settle(1000.0)  # long idle with power-off disabled
        enc.enable_power_off(1000.0)
        enc.settle(1001.0)
        # Must not instantly vanish: timeout counts from the enable.
        assert enc.state is PowerState.IDLE


class TestSpinUp:
    def test_io_to_off_enclosure_waits_for_spin_up(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        enc.settle(1000.0)
        assert enc.state is PowerState.OFF
        result = enc.submit(1000.0)
        assert result.wait_time == pytest.approx(
            enc.power_model.spin_up_seconds
        )
        assert enc.spin_up_count == 1

    def test_spin_up_event_recorded(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        enc.settle(1000.0)
        enc.submit(1000.0)
        assert enc.spin_up_events == [1000.0]

    def test_io_during_spin_down_waits_for_both_transitions(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        # At t=53 the enclosure is mid-spin-down (timeout 52 + 4 s).
        enc.settle(53.0)
        assert enc.state is PowerState.SPIN_DOWN
        result = enc.submit(53.0)
        expected_wait = (
            (52.0 + enc.power_model.spin_down_seconds - 53.0)
            + enc.power_model.spin_up_seconds
        )
        assert result.wait_time == pytest.approx(expected_wait)


class TestEnergyAccounting:
    def test_idle_energy(self):
        enc = enclosure()
        enc.settle(100.0)
        assert enc.energy_joules() == pytest.approx(
            100.0 * enc.power_model.idle_watts
        )

    def test_active_energy_for_service(self):
        enc = enclosure()
        enc.submit(0.0)  # 0.5 s active
        enc.settle(10.0)
        active = enc.energy_joules(PowerState.ACTIVE)
        assert active == pytest.approx(0.5 * enc.power_model.active_watts)

    def test_energy_additive_over_settle_splits(self):
        enc1, enc2 = enclosure(), enclosure()
        enc1.submit(0.0)
        enc2.submit(0.0)
        for t in range(1, 101):
            enc1.settle(float(t))
        enc2.settle(100.0)
        assert enc1.energy_joules() == pytest.approx(enc2.energy_joules())

    def test_time_in_states_sums_to_clock(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        enc.submit(0.0)
        enc.submit(200.0)
        enc.settle(500.0)
        total = sum(enc.time_in_state(s) for s in PowerState)
        assert total == pytest.approx(enc.clock)

    def test_average_watts_bounded_by_model(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        for t in range(0, 2000, 400):
            enc.submit(float(t))
        enc.finish(2000.0)
        avg = enc.average_watts()
        assert enc.power_model.off_watts <= avg
        # Spin-up spikes can push instantaneous power above active, but
        # the average stays below the spin-up wattage.
        assert avg < enc.power_model.spin_up_watts

    def test_settle_is_idempotent(self):
        enc = enclosure()
        enc.settle(100.0)
        before = enc.energy_joules()
        enc.settle(100.0)
        enc.settle(50.0)  # past time: no-op
        assert enc.energy_joules() == before

    def test_power_cycle_costs_match_power_model(self):
        """One full off/on cycle's energy equals the model's prediction."""
        enc = enclosure()
        model = enc.power_model
        first = enc.submit(0.0)
        enc.enable_power_off(first.completion)
        gap_end = first.completion + 2000.0
        enc.settle(gap_end)
        # Energy across the gap: idle (timeout) + spin-down + off.
        expected = (
            52.0 * model.idle_watts
            + model.spin_down_seconds * model.spin_down_watts
            + (2000.0 - 52.0 - model.spin_down_seconds) * model.off_watts
        )
        measured = enc.energy_joules() - first.completion * 0  # settle covers all
        active = enc.energy_joules(PowerState.ACTIVE)
        assert measured - active == pytest.approx(expected, rel=1e-6)


class TestOccupy:
    def test_occupy_charges_given_duration(self):
        enc = enclosure()
        result = enc.occupy(0.0, 3.0, count=5, read=False)
        assert result.completion == pytest.approx(3.0)
        assert enc.write_count == 5

    def test_occupy_queues_like_submit(self):
        enc = enclosure()
        enc.occupy(0.0, 3.0)
        result = enc.submit(1.0)
        assert result.start == pytest.approx(3.0)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            enclosure().occupy(0.0, -1.0)
        with pytest.raises(ValueError):
            enclosure().occupy(0.0, 1.0, count=0)


class TestBackgroundTransfer:
    def test_lazy_no_state_change(self):
        enc = enclosure()
        enc.background_transfer(100.0, 50.0, 10.0, count=3, read=True)
        assert enc.clock == 0.0
        assert enc.state is PowerState.IDLE

    def test_energy_charged_externally(self):
        enc = enclosure()
        enc.background_transfer(0.0, 10.0, 4.0, count=1, read=True)
        delta = enc.power_model.active_watts - enc.power_model.idle_watts
        assert enc.energy_joules() == pytest.approx(4.0 * delta)

    def test_holds_enclosure_awake(self):
        enc = enclosure()
        enc.enable_power_off(0.0)
        enc.background_transfer(0.0, 500.0, 1.0, count=1, read=True)
        enc.settle(400.0)
        assert enc.state is PowerState.IDLE  # would be OFF without hold
        enc.settle(700.0)
        assert enc.state is PowerState.OFF  # hold expired at 500 + timeout

    def test_does_not_block_queue(self):
        enc = enclosure()
        enc.background_transfer(0.0, 1000.0, 100.0, count=1, read=True)
        result = enc.submit(1.0)
        assert result.wait_time == 0.0

    def test_counts_ios(self):
        enc = enclosure()
        enc.background_transfer(0.0, 1.0, 1.0, count=7, read=False)
        assert enc.write_count == 7

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            enclosure().background_transfer(0.0, -1.0, 0.0, 1, True)
        with pytest.raises(ValueError):
            enclosure().background_transfer(0.0, 1.0, 1.0, 0, True)


class TestIOResult:
    def test_response_decomposition(self):
        result = IOResult(arrival=1.0, start=3.0, completion=5.0, count=1)
        assert result.wait_time == 2.0
        assert result.response_time == 4.0

    def test_mean_response_single_io(self):
        result = IOResult(arrival=0.0, start=0.0, completion=1.0, count=1)
        assert result.mean_response_time == pytest.approx(1.0)
