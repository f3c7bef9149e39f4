"""repro.engine: the deterministic discrete-event kernel.

The simulator's single source of virtual time.  See ``docs/engine.md``
for the event taxonomy, the tie-break table, and how to add an event
source; :mod:`repro.engine.kernel` for the pump itself.
"""

from repro.engine.clock import SimClock, Throttle
from repro.engine.events import (
    FAULT_BOOKKEEPING,
    FLUSH_DEADLINE,
    POLICY_CHECKPOINT,
    TIMELINE_SAMPLE,
    TRACE_RECORD,
    Event,
    FlushDeadlineEvent,
    TimelineSampleEvent,
    TraceRecordEvent,
)
from repro.engine.kernel import ReplayOutcome, SimulationKernel
from repro.engine.queue import EventQueue

__all__ = [
    "SimClock",
    "Throttle",
    "TIMELINE_SAMPLE",
    "FAULT_BOOKKEEPING",
    "POLICY_CHECKPOINT",
    "TRACE_RECORD",
    "FLUSH_DEADLINE",
    "Event",
    "TimelineSampleEvent",
    "TraceRecordEvent",
    "FlushDeadlineEvent",
    "EventQueue",
    "ReplayOutcome",
    "SimulationKernel",
]
