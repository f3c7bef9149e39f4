"""Property tests: the enclosure's energy timeline is exact.

Whatever sequence of I/Os, settles, and policy flips happens, the
timeline must remain consistent: time-in-state sums to the clock, energy
equals Σ state-power × state-time, and the FIFO queue never reorders.
The controller's application I/O and a bulk ``occupy`` of ``1/rate``
seconds share one service body (``submit_one``), and must leave the same
enclosure behind, faulted or not.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import EnclosureUnavailableError, SpinUpFailedError
from repro.faults import FaultClock, FaultModel, FaultPlan
from repro.faults.plan import EnclosureOutage, SlowSpinUp, SpinUpFailure
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.power import PowerState
from repro.storage.virtualization import BlockVirtualization


@st.composite
def operation_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["io", "settle", "enable", "disable"]),
                st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    return ops


def run_ops(ops):
    enc = DiskEnclosure(
        "e0", iops_random=2.0, iops_sequential=6.0, spin_down_timeout=52.0
    )
    clock = 0.0
    for op, delta in ops:
        clock += delta
        if op == "io":
            enc.submit(clock)
        elif op == "settle":
            enc.settle(clock)
        elif op == "enable":
            enc.enable_power_off(clock)
        else:
            enc.disable_power_off(clock)
    enc.finish(clock + 400.0)
    return enc


@given(operation_sequences())
@settings(max_examples=150, deadline=None)
def test_time_in_states_sums_to_clock(ops):
    enc = run_ops(ops)
    total = sum(enc.time_in_state(s) for s in PowerState)
    assert abs(total - enc.clock) < 1e-6


@given(operation_sequences())
@settings(max_examples=150, deadline=None)
def test_energy_equals_power_times_time(ops):
    enc = run_ops(ops)
    expected = sum(
        enc.power_model.watts(s) * enc.time_in_state(s) for s in PowerState
    )
    assert abs(enc.energy_joules() - expected) < 1e-6


@given(operation_sequences())
@settings(max_examples=150, deadline=None)
def test_average_power_within_physical_bounds(ops):
    enc = run_ops(ops)
    avg = enc.average_watts()
    assert enc.power_model.off_watts - 1e-9 <= avg
    assert avg <= enc.power_model.spin_up_watts + 1e-9


@given(operation_sequences())
@settings(max_examples=150, deadline=None)
def test_spin_counts_balance(ops):
    enc = run_ops(ops)
    # Every spin-up follows a spin-down; at most one cycle can be open.
    assert 0 <= enc.spin_down_count - enc.spin_up_count <= 1


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_fifo_completions_are_monotone(deltas):
    enc = DiskEnclosure("e0", iops_random=2.0)
    clock = 0.0
    completions = []
    for delta in deltas:
        clock += delta
        completions.append(enc.submit(clock).completion)
    assert completions == sorted(completions)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_response_never_below_service_time(deltas):
    enc = DiskEnclosure("e0", iops_random=2.0, spin_down_timeout=52.0)
    enc.enable_power_off(0.0)
    clock = 0.0
    for delta in deltas:
        clock += delta
        result = enc.submit(clock)
        assert result.response_time >= enc.service_time(1, False) - 1e-9
        assert result.wait_time >= 0.0


# ----------------------------------------------------------------------
# Application I/O against occupy(now, 1/rate)
# ----------------------------------------------------------------------
@st.composite
def fault_plans(draw):
    windows = st.tuples(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=300.0, allow_nan=False),
    )
    # Outages land on e0 (the enclosure under test) or on e1, so plans
    # where e0 has a fault clock but no windows of its own, the common
    # case of a storm plan, are drawn too.
    events = [
        EnclosureOutage(enclosure=enclosure, start=start, end=start + length)
        for enclosure, (start, length) in draw(
            st.lists(st.tuples(st.sampled_from(["e0", "e1"]), windows), max_size=4)
        )
    ]
    events += [
        SpinUpFailure(enclosure="e0", after=after, failures=failures)
        for after, failures in draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=2000.0),
                    st.integers(min_value=1, max_value=3),
                ),
                max_size=3,
            )
        )
    ]
    events += [
        SlowSpinUp(
            enclosure="e0", start=start, end=start + length, multiplier=3.0
        )
        for start, length in draw(st.lists(windows, max_size=2))
    ]
    model = FaultModel(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        spin_up_failure_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
        max_consecutive_failures=draw(st.integers(min_value=1, max_value=3)),
        slow_spin_up_prob=draw(st.floats(min_value=0.0, max_value=0.6)),
    )
    return FaultPlan(events=tuple(draw(st.permutations(events))), model=model)


faulted_ops = st.lists(
    st.tuples(
        st.sampled_from(["io", "io", "io", "settle", "enable", "disable"]),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
        st.booleans(),
        st.booleans(),
    ),
    max_size=60,
)


def _outcome(call):
    """A call's return value, or its exception type and fault time."""
    try:
        return call()
    except EnclosureUnavailableError as err:
        return (EnclosureUnavailableError, err.at, err.until)
    except SpinUpFailedError as err:
        return (SpinUpFailedError, err.at)


def _testbed(plan):
    """One enclosure ``e0`` holding item ``a``, behind a cacheless controller.

    The cache has no room at all, so every read misses and no write is
    absorbed (not even into the emergency buffer): each application I/O
    reaches the enclosure.
    """
    enclosure = DiskEnclosure(
        "e0", iops_random=2.0, iops_sequential=6.0, spin_down_timeout=20.0
    )
    virtualization = BlockVirtualization([enclosure])
    virtualization.create_volume("v0", "e0")
    virtualization.add_item("a", 64 * units.MB, "v0")
    controller = StorageController(
        virtualization,
        StorageCache(total_bytes=0, preload_bytes=0, write_delay_bytes=0),
    )
    clock = None
    if plan is not None:
        clock = FaultClock(plan)
        enclosure.set_fault_clock(clock)
        controller.set_fault_clock(clock)
    return controller, enclosure, clock


def _occupy_response(controller, enclosure, now, seconds, read):
    """Mean response of a one-I/O ``occupy``, retried across faults."""
    result, delay = controller._with_fault_retry(
        now, enclosure.occupy, seconds, 1, read
    )
    return result.mean_response_time + delay


@given(st.one_of(st.none(), fault_plans()), faulted_ops)
@settings(max_examples=200, deadline=None)
def test_faulted_submit_one_matches_submit(plan, ops):
    # The controller's application I/O against a bulk occupy of 1/rate
    # seconds on a twin, retried across faults by the twin's controller.
    controller, one, one_clock = _testbed(plan)
    twin_controller, twin, twin_clock = _testbed(plan)
    now = 0.0
    for op, delta, read, sequential in ops:
        now += delta
        if op == "io":
            service = 1.0 / (twin.iops_sequential if sequential else twin.iops_random)
            got = _outcome(
                lambda: controller.submit(now, "a", 0, 4096, read, sequential)
            )
            want = _outcome(
                lambda: _occupy_response(twin_controller, twin, now, service, read)
            )
            if plan is None:
                # Without a fault clock the controller adds s itself, not
                # (start + s) - start: the two may differ in the last bit
                # of the completion.
                assert abs(got - want) <= math.ulp(twin.busy_until)
            else:
                assert got == want
        elif op == "settle":
            one.settle(now)
            twin.settle(now)
        elif op == "enable":
            one.enable_power_off(now)
            twin.enable_power_off(now)
        else:
            one.disable_power_off(now)
            twin.disable_power_off(now)
        assert one.snapshot_state() == twin.snapshot_state()
        if plan is not None:
            assert one_clock.snapshot_state() == twin_clock.snapshot_state()
