"""Property test: DDR's one-pass checkpoint fold matches a reference fold.

:meth:`DDRPolicy.on_checkpoint` smooths each enclosure's IOPS straight
from the storage monitor's window counts.  The reference here computes
the same recurrence the long way, on :meth:`StorageMonitor.window_stats`:
the per-enclosure IOPS table first, then ``(1 - alpha) * s + alpha *
iops`` with a ``.get`` on the smoothed table.  The smoothed values must
agree bit for bit and the cold sets exactly, whatever the counts and the
checkpoint spacing (zero-length windows included).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.simulation import build_context

#: One checkpoint: the time since the previous one (0 is a zero-length
#: window) and the physical I/O count of each enclosure in the window.
checkpoints = st.lists(
    st.tuples(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
        ),
        st.lists(st.integers(min_value=0, max_value=40), min_size=4, max_size=4),
    ),
    min_size=1,
    max_size=25,
)


class ReferenceFold:
    """DDR's smoothing and cold rule, computed on ``window_stats``."""

    def __init__(
        self, names: list[str], smoothing: float, target_th: float
    ) -> None:
        self.smoothing = smoothing
        self.low_th = target_th / 2.0
        self.window_start = 0.0
        self.smoothed = dict.fromkeys(names, 0.0)
        self.cold: set[str] = set()

    def checkpoint(self, monitor, now: float) -> None:
        window = now - self.window_start
        if window <= 0:
            return
        alpha = min(1.0, window / self.smoothing)
        cold = set()
        for name, iops in monitor.window_stats(now).items():
            value = (1 - alpha) * self.smoothed.get(name, 0.0) + alpha * iops
            self.smoothed[name] = value
            if value < self.low_th:
                cold.add(name)
        self.cold = cold
        self.window_start = now


def _bits(table: dict[str, float]) -> list[tuple[str, str]]:
    return [(name, value.hex()) for name, value in table.items()]


@given(
    enclosures=st.integers(min_value=1, max_value=4),
    smoothing=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    target_th=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    steps=checkpoints,
)
@settings(max_examples=150, deadline=None)
def test_checkpoint_fold_matches_window_stats_reference(
    enclosures, smoothing, target_th, steps
):
    context = build_context(DEFAULT_CONFIG, enclosures)
    monitor = context.storage_monitor
    policy = DDRPolicy(
        monitoring_period=0.25,
        target_th=target_th,
        iops_smoothing_seconds=smoothing,
    )
    policy.bind(context)
    policy.on_start(0.0)
    monitor.begin_window(0.0)
    names = context.enclosure_names()
    reference = ReferenceFold(names, smoothing, target_th)
    now = 0.0
    for gap, counts in steps:
        now += gap
        for name, count in zip(names, counts):
            if count:
                monitor.on_physical_fast(now, name, count)
        reference.checkpoint(monitor, now)
        policy.on_checkpoint(now)
        assert _bits(policy._smoothed_iops) == _bits(reference.smoothed)
        assert policy._cold == reference.cold
        enabled = {e.name for e in context.enclosures if e.power_off_enabled}
        assert enabled == reference.cold
