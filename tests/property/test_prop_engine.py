"""Property tests: slot ordering under the repro.engine kernel.

The kernel is a loop over two slots — the power timeline's next sample
and the policy checkpoint (with fault bookkeeping right before it) —
merged with the time-ordered trace records.  At a shared instant they
fire in class order: sample (0), bookkeeping (1), checkpoint (2),
record (3).  The property below draws record times from a small grid
that the 10 s sampling cadence and the checkpoints also land on, so
equal-timestamp collisions are the common case, and lets the policy
keep moving its checkpoint.

Replay determinism rides on top of this: the serial == parallel ==
cached bit-identity suite (``tests/experiments``) and the pre-kernel
golden test (``tests/trace/test_replay_golden.py``) both run every
replay through the kernel, so those suites double as end-to-end
determinism proofs; here we add the direct property that two replays
of the same trace in one process are equal object-for-object.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baselines.base import PowerPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.engine.kernel import SimulationKernel
from repro.faults.plan import CacheBatteryFailure, FaultPlan
from repro.monitoring.timeline import PowerTimeline
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer

#: Tie-break classes at one instant, as the kernel documents them.
SAMPLE, BOOKKEEPING, CHECKPOINT, RECORD = range(4)

#: Sampling cadence; every grid point is a sample boundary.
INTERVAL = 10.0

#: A coarse time grid, so same-timestamp collisions are the common case.
GRID = [0.0, 10.0, 20.0, 30.0, 40.0]


class _MovingPolicy(PowerPolicy):
    """Checkpoints on the grid; moves the checkpoint on I/O and checkpoints.

    Each move consumes one drawn step: a step of ``k`` puts the next
    checkpoint ``10·k`` seconds after now, ``None`` withdraws it.  Once
    the steps run out, checkpoints recur every 10 s and I/O leaves them
    alone.
    """

    name = "moving-spy"

    def __init__(self, first, steps, log):
        super().__init__()
        self._next = first
        self._steps = list(steps)
        self.log = log

    def next_checkpoint(self):
        return self._next

    def _move(self, now, default):
        step = self._steps.pop(0) if self._steps else default
        self._next = None if step is None else now + 10.0 * step

    def on_checkpoint(self, now):
        # A moved checkpoint must never fire at its stale time.
        assert now == self._next, (now, self._next)
        self.log.append((now, CHECKPOINT, 0))
        self._move(now, 1)

    def after_io(self, timestamp, *fields):
        if self._steps:
            self._move(timestamp, None)


class _RecordingKernel(SimulationKernel):
    def __init__(self, context, policy, timeline, log):
        super().__init__(context, policy, timeline=timeline)
        self.log = log

    def fire_timeline_sample(self, now):
        self.log.append((now, SAMPLE, 0))
        super().fire_timeline_sample(now)

    def fire_fault_bookkeeping(self, now):
        self.log.append((now, BOOKKEEPING, 0))
        super().fire_fault_bookkeeping(now)


def _moving_kernel(first, steps, faulted):
    faults = (
        FaultPlan(events=(CacheBatteryFailure(time=1.0e6),))
        if faulted
        else None
    )
    context = build_context(DEFAULT_CONFIG, 2, faults=faults)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    timeline = PowerTimeline(context.enclosures, interval_seconds=INTERVAL)
    log = []
    policy = _MovingPolicy(first, steps, log)
    policy.bind(context)
    kernel = _RecordingKernel(context, policy, timeline, log)
    return kernel, policy, timeline, log


checkpoint_steps = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=12
)
first_checkpoint = st.one_of(st.none(), st.sampled_from(GRID))


@settings(deadline=None, max_examples=80)
@given(
    records=st.lists(st.sampled_from(GRID), min_size=1, max_size=12),
    first=first_checkpoint,
    steps=checkpoint_steps,
    faulted=st.booleans(),
)
def test_two_slots_order_against_records(records, first, steps, faulted):
    kernel, policy, timeline, log = _moving_kernel(first, steps, faulted)
    trace = [
        LogicalIORecord(ts, "a", 0, 4096, IOType.READ)
        for ts in sorted(records)
    ]
    # Records log through after_io, in trace order.
    after_io = policy.after_io
    record_log = iter(range(len(trace)))

    def logged_after_io(timestamp, *fields):
        log.append((timestamp, RECORD, next(record_log)))
        after_io(timestamp, *fields)

    policy.after_io = logged_after_io
    duration = GRID[-1] + 10.0
    outcome = kernel.replay(trace, duration=duration)

    # Every fire follows (time, class, record order).
    assert log == sorted(log)
    classes = [entry[1] for entry in log]
    checkpoints = [i for i, c in enumerate(classes) if c == CHECKPOINT]
    bookkeeping = [i for i, c in enumerate(classes) if c == BOOKKEEPING]
    if faulted:
        assert bookkeeping == [i - 1 for i in checkpoints]
        assert all(log[i][0] == log[i + 1][0] for i in bookkeeping)
    else:
        assert bookkeeping == []
    assert [e[2] for e in log if e[1] == RECORD] == list(range(len(trace)))

    # Samples fire once per boundary, in order, and cover every boundary
    # up to the last record or fired checkpoint; the later ones are the
    # timeline's own end-of-run settlement.
    fired = [entry[0] for entry in log if entry[1] == SAMPLE]
    assert fired == [INTERVAL * k for k in range(1, len(fired) + 1)]
    reached = max(entry[0] for entry in log if entry[1] != SAMPLE)
    assert all(time <= reached for time in fired)
    assert reached < (len(fired) + 1) * INTERVAL
    boundaries = [p.timestamp for p in timeline.points]
    whole = int(outcome.final // INTERVAL)
    assert boundaries[:whole] == [INTERVAL * k for k in range(1, whole + 1)]

    # The tail drain fires every checkpoint due by the window's end.
    pending = policy.next_checkpoint()
    assert pending is None or pending > duration


def _replay_once():
    context = build_context(DEFAULT_CONFIG, 2)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    records = [
        LogicalIORecord(float(t), "a", 0, 4096, IOType.READ)
        for t in range(0, 600, 35)
    ]
    return TraceReplayer(context, NoPowerSavingPolicy()).run(
        records, duration=600.0
    )


@settings(deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=2))
def test_replay_is_deterministic_run_to_run(_seed):
    assert _replay_once() == _replay_once()
