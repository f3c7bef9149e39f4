"""Failure-injection tests for the replayer."""

import pytest

from repro.baselines.base import PowerPolicy
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer


def rec(t):
    return LogicalIORecord(t, "item-0", 0, 4096, IOType.READ)


class ExplodingPolicy(PowerPolicy):
    """Raises inside a chosen callback."""

    name = "exploding"

    def __init__(self, where):
        super().__init__()
        self.where = where
        self._next = 10.0
        if where == "start":
            self.on_start = self._boom  # type: ignore[method-assign]

    def _boom(self, *args, **kwargs):
        raise RuntimeError(f"boom in {self.where}")

    def next_checkpoint(self):
        return self._next

    def on_checkpoint(self, now):
        if self.where == "checkpoint":
            raise RuntimeError("boom in checkpoint")
        self._next = now + 10.0

    def after_io(self, timestamp, *fields):
        if self.where == "after_io":
            raise RuntimeError("boom in after_io")


class TestPolicyFailuresPropagate:
    """A broken policy must fail loudly, not corrupt results silently."""

    @pytest.mark.parametrize("where", ["start", "checkpoint", "after_io"])
    def test_exception_propagates(self, small_context, where):
        replayer = TraceReplayer(small_context, ExplodingPolicy(where))
        with pytest.raises(RuntimeError, match="boom"):
            replayer.run([rec(1.0), rec(20.0)], duration=30.0)

    def test_context_still_inspectable_after_failure(self, small_context):
        replayer = TraceReplayer(small_context, ExplodingPolicy("after_io"))
        with pytest.raises(RuntimeError):
            replayer.run([rec(1.0)], duration=5.0)
        # The partial run's accounting is still consistent.
        assert small_context.controller.logical_io_count == 1
        for enclosure in small_context.enclosures:
            assert enclosure.energy_joules() >= 0.0
