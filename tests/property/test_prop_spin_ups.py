"""Property tests: the storage monitor's spin-up count by bisection.

:meth:`StorageMonitor.spin_ups_since` counts an enclosure's spin-up
events at or after ``since`` by bisecting ``spin_up_events``, which is
right only while that list is ascending.  The enclosure appends each
event at its own clock, so the list must stay ascending through
spin-ups, failed spin-ups (an injected failure charges the attempt and
leaves the enclosure OFF) and a snapshot restore into a fresh
enclosure; and the bisected count must equal the linear count for any
``since``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpinUpFailedError
from repro.faults import FaultClock, FaultPlan
from repro.faults.plan import SpinUpFailure
from repro.monitoring.storage import StorageMonitor
from repro.storage.enclosure import DiskEnclosure

#: Short enough that the drawn gaps spin the enclosure down and up again.
SPIN_DOWN_TIMEOUT = 20.0


def _enclosure(clock: FaultClock) -> DiskEnclosure:
    enclosure = DiskEnclosure(
        "e0",
        iops_random=2.0,
        iops_sequential=6.0,
        spin_down_timeout=SPIN_DOWN_TIMEOUT,
    )
    enclosure.set_fault_clock(clock)
    return enclosure


failure_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2000.0),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=4,
).map(
    lambda draws: FaultPlan(
        events=tuple(
            SpinUpFailure(enclosure="e0", after=after, failures=failures)
            for after, failures in draws
        )
    )
)

operations = st.lists(
    st.tuples(
        st.sampled_from(["io", "io", "io", "settle", "restore"]),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    ),
    max_size=60,
)

probes = st.lists(
    st.floats(min_value=-10.0, max_value=8000.0, allow_nan=False), max_size=8
)


def _linear(events: list[float], since: float) -> int:
    return sum(1 for t in events if t >= since)


@given(failure_plans, operations, probes)
@settings(max_examples=200, deadline=None)
def test_bisected_count_matches_linear_count(plan, ops, sinces):
    clock = FaultClock(plan)
    enclosure = _enclosure(clock)
    enclosure.enable_power_off(0.0)
    monitor = StorageMonitor([enclosure])
    now = 0.0
    for op, delta in ops:
        now += delta
        if op == "io":
            try:
                enclosure.submit_one(now, 1.0 / enclosure.iops_random, 1, True)
            except SpinUpFailedError:
                pass
        elif op == "settle":
            enclosure.settle(max(now, enclosure.clock))
        else:
            restored = _enclosure(clock)
            restored.restore_state(enclosure.snapshot_state())
            enclosure = restored
            monitor = StorageMonitor([enclosure])
        events = enclosure.spin_up_events
        assert events == sorted(events)
        # Each event's own time, and the floats either side of it, are
        # where a bisection would go wrong first.
        edges = [
            edge
            for t in events
            for edge in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
        ]
        for since in (*sinces, *edges, now):
            assert monitor.spin_ups_since("e0", since) == _linear(events, since)
