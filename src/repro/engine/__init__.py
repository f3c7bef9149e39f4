"""repro.engine: the deterministic discrete-event kernel.

The simulator's single source of virtual time.  See ``docs/engine.md``
for the two dispatch slots and the tie-break table;
:mod:`repro.engine.kernel` for the pump itself.
"""

from repro.engine.clock import SimClock, Throttle
from repro.engine.kernel import ReplayOutcome, SimulationKernel

__all__ = [
    "SimClock",
    "Throttle",
    "ReplayOutcome",
    "SimulationKernel",
]
