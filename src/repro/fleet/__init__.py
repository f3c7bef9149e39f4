"""Fleet-scale sharded simulation: many arrays, one set of global books.

The paper manages a single 12-enclosure array; this package scales the
reproduction out to a *fleet* of N independent arrays.  Data items are
routed to arrays by a deterministic, seed-stable hash
(:mod:`repro.fleet.routing`), any workload is partitioned into per-array
sub-traces with order- and bit-stable slicing (:mod:`repro.fleet.split`),
the per-array replays fan out through the existing parallel experiment
engine (:class:`~repro.fleet.runner.FleetRunner`), and the per-array
results merge into fleet-level energy / availability / latency / action
books whose conservation laws hold globally
(:mod:`repro.fleet.aggregate`).

The bit-identity contract: a 1-array fleet takes the exact legacy code
paths (no name namespacing, the workload passes through unchanged), so
it reproduces the golden single-array replay results byte for byte.
See ``docs/fleet.md``.
"""

from repro.fleet.aggregate import (
    FleetResult,
    audit_fleet,
    merge_results,
)
from repro.fleet.chaos import array_outage_plans
from repro.fleet.routing import (
    ARRAY_SEPARATOR,
    HashRouter,
    array_name,
    shard_for,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.split import shard_columnar, shard_workload, split_workload

__all__ = [
    "ARRAY_SEPARATOR",
    "FleetResult",
    "FleetRunner",
    "HashRouter",
    "array_name",
    "array_outage_plans",
    "audit_fleet",
    "merge_results",
    "shard_columnar",
    "shard_for",
    "shard_workload",
    "split_workload",
]
