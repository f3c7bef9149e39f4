"""Fleet-level books: merge per-array results, audit global conservation.

A fleet run produces one :class:`~repro.experiments.runner.ExperimentResult`
per array.  :func:`merge_results` folds them into a :class:`FleetResult`
— fleet-wide energy, latency, availability, migration, and action books
— and :func:`audit_fleet` re-derives every book independently and
checks the fleet's conservation laws:

* **energy** — fleet joules are *exactly* the sum of per-array joules
  (enclosure and controller separately; no averaging, no tolerance);
* **I/O** — fleet I/O, read, and response-sum books equal the sums of
  the per-array books;
* **ownership** — no array's action log ever names an item the router
  assigns to a different array, and (for N > 1) every enclosure an
  action touches carries that array's namespace prefix.

Violations raise :class:`~repro.errors.AuditError`, the same failure
mode the per-array :class:`~repro.devtools.audit.InvariantAuditor`
uses, so a fleet whose books do not add up is a test failure, not a
statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import AuditError, ValidationError
from repro.experiments.runner import ExperimentResult
from repro.faults.report import AvailabilityReport
from repro.fleet.routing import ARRAY_SEPARATOR, HashRouter, array_name
from repro.monitoring.application import ResponseStats

__all__ = [
    "FleetResult",
    "audit_fleet",
    "merge_results",
]


def _merge_response(parts: Sequence[ResponseStats]) -> ResponseStats:
    """Sum the counters, take the max of the maxima."""
    return ResponseStats(
        io_count=sum(p.io_count for p in parts),
        read_count=sum(p.read_count for p in parts),
        response_sum=sum(p.response_sum for p in parts),
        read_response_sum=sum(p.read_response_sum for p in parts),
        max_response=max((p.max_response for p in parts), default=0.0),
    )


def _merge_availability(
    parts: Sequence[AvailabilityReport],
) -> AvailabilityReport:
    """Fleet availability: counters sum, peaks max, series dropped.

    Per-array ``at_risk_series`` samples are not combinable into one
    fleet series without resampling (each array changes at its own
    times), so the merged report carries the integral books
    (``at_risk_byte_seconds``, peaks) and leaves the series empty; the
    per-array reports keep theirs.
    """
    return AvailabilityReport(
        denied_ios=sum(p.denied_ios for p in parts),
        delayed_ios=sum(p.delayed_ios for p in parts),
        spin_up_retries=sum(p.spin_up_retries for p in parts),
        spin_up_failures=sum(p.spin_up_failures for p in parts),
        max_queue_delay=max((p.max_queue_delay for p in parts), default=0.0),
        fault_delay_seconds=sum(p.fault_delay_seconds for p in parts),
        unavailability_seconds=sum(p.unavailability_seconds for p in parts),
        emergency_buffered_ios=sum(p.emergency_buffered_ios for p in parts),
        emergency_flushes=sum(p.emergency_flushes for p in parts),
        at_risk_peak_bytes=max(
            (p.at_risk_peak_bytes for p in parts), default=0
        ),
        at_risk_byte_seconds=sum(p.at_risk_byte_seconds for p in parts),
        at_risk_series=(),
        migration_aborts=sum(p.migration_aborts for p in parts),
        degraded_cooldowns=sum(p.degraded_cooldowns for p in parts),
        outage_violations=sum(p.outage_violations for p in parts),
    )


@dataclass(frozen=True)
class FleetResult:
    """Merged books of one fleet run (one workload × policy × router)."""

    workload_name: str
    policy_name: str
    n_arrays: int
    router_seed: int
    duration_seconds: float
    #: Per-array results, in array order (index == array index).
    arrays: tuple[ExperimentResult, ...]
    #: Fleet-wide I/O count (sum of per-array counts).
    io_count: int
    #: Fleet-wide response books (sums; max of maxima).
    response: ResponseStats
    #: Fleet-wide availability books (sums; maxima; no merged series).
    availability: AvailabilityReport
    #: Exact sum of per-array enclosure energy, in joules.
    enclosure_joules: float
    #: Exact sum of per-array controller energy, in joules.
    controller_joules: float
    migrated_bytes: int
    migration_count: int
    determinations: int
    spin_up_count: int
    spin_down_count: int
    #: Actions applied fleet-wide, by action kind (sorted keys).
    actions_by_kind: tuple[tuple[str, int], ...]
    #: Per-array invariant-audit checks that ran (0 without audit).
    audit_checks: int = 0

    @property
    def total_joules(self) -> float:
        """Fleet energy, enclosures plus controllers, in joules."""
        return self.enclosure_joules + self.controller_joules

    @property
    def enclosure_watts(self) -> float:
        """Mean fleet enclosure power over the run, in watts."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.enclosure_joules / self.duration_seconds

    @property
    def controller_watts(self) -> float:
        """Mean fleet controller power over the run, in watts."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.controller_joules / self.duration_seconds

    @property
    def mean_response(self) -> float:
        """Mean response time across all fleet I/Os, in seconds."""
        return self.response.mean_response

    @property
    def mean_read_response(self) -> float:
        """Mean response time of fleet read I/Os, in seconds."""
        return self.response.mean_read_response

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready fleet report: global books plus per-array rows.

        Carries the *books*, not the raw per-array payloads (action
        logs and timelines stay on :attr:`arrays`); this is what
        ``ecostor fleet run --out`` writes and ``ecostor fleet report``
        renders.
        """
        return {
            "workload": self.workload_name,
            "policy": self.policy_name,
            "n_arrays": self.n_arrays,
            "router_seed": self.router_seed,
            "duration_seconds": self.duration_seconds,
            "io_count": self.io_count,
            "enclosure_joules": self.enclosure_joules,
            "controller_joules": self.controller_joules,
            "enclosure_watts": self.enclosure_watts,
            "controller_watts": self.controller_watts,
            "mean_response": self.mean_response,
            "mean_read_response": self.mean_read_response,
            "migrated_bytes": self.migrated_bytes,
            "migration_count": self.migration_count,
            "determinations": self.determinations,
            "spin_up_count": self.spin_up_count,
            "spin_down_count": self.spin_down_count,
            "denied_ios": self.availability.denied_ios,
            "delayed_ios": self.availability.delayed_ios,
            "unavailability_seconds": (
                self.availability.unavailability_seconds
            ),
            "outage_violations": self.availability.outage_violations,
            "actions_by_kind": dict(self.actions_by_kind),
            "audit_checks": self.audit_checks,
            "arrays": [
                {
                    "array": array_name(index),
                    "io_count": result.replay.io_count,
                    "enclosure_joules": result.replay.power.enclosure_joules,
                    "controller_joules": (
                        result.replay.power.controller_joules
                    ),
                    "enclosure_watts": result.enclosure_watts,
                    "mean_response": result.mean_response,
                    "migrated_bytes": result.migrated_bytes,
                    "spin_up_count": result.replay.spin_up_count,
                    "actions": len(result.replay.actions),
                    "denied_ios": result.replay.availability.denied_ios,
                    "unavailability_seconds": (
                        result.replay.availability.unavailability_seconds
                    ),
                }
                for index, result in enumerate(self.arrays)
            ],
        }


def merge_results(
    results: Sequence[ExperimentResult],
    n_arrays: int,
    router_seed: int = 0,
) -> FleetResult:
    """Fold per-array results (array order) into one :class:`FleetResult`.

    Requires exactly one result per array, all from the same workload
    and policy over the same measurement window.  Energy books are
    plain left-to-right sums of the per-array joules — the exact sums
    :func:`audit_fleet` re-derives.
    """
    if len(results) != n_arrays:
        raise ValidationError(
            f"fleet of {n_arrays} arrays needs {n_arrays} results, "
            f"got {len(results)}"
        )
    if len({r.workload_name for r in results}) != 1:
        raise ValidationError(
            "fleet results mix workloads: "
            f"{sorted({r.workload_name for r in results})}"
        )
    if len({r.policy_name for r in results}) != 1:
        raise ValidationError(
            "fleet results mix policies: "
            f"{sorted({r.policy_name for r in results})}"
        )
    # Every array replays the same measurement window; a set collapses
    # the (exactly equal) durations without a float == comparison.
    durations = {r.replay.duration_seconds for r in results}
    if len(durations) != 1:
        raise ValidationError(
            f"fleet results span different durations: {sorted(durations)}"
        )
    kinds: dict[str, int] = {}
    for result in results:
        for record in result.replay.actions:
            kind = record.action.kind
            kinds[kind] = kinds.get(kind, 0) + 1
    return FleetResult(
        workload_name=results[0].workload_name,
        policy_name=results[0].policy_name,
        n_arrays=n_arrays,
        router_seed=router_seed,
        duration_seconds=durations.pop(),
        arrays=tuple(results),
        io_count=sum(r.replay.io_count for r in results),
        response=_merge_response([r.replay.response for r in results]),
        availability=_merge_availability(
            [r.replay.availability for r in results]
        ),
        enclosure_joules=sum(
            r.replay.power.enclosure_joules for r in results
        ),
        controller_joules=sum(
            r.replay.power.controller_joules for r in results
        ),
        migrated_bytes=sum(r.replay.migrated_bytes for r in results),
        migration_count=sum(r.replay.migration_count for r in results),
        determinations=sum(r.replay.determinations for r in results),
        spin_up_count=sum(r.replay.spin_up_count for r in results),
        spin_down_count=sum(r.replay.spin_down_count for r in results),
        actions_by_kind=tuple(sorted(kinds.items())),
        audit_checks=sum(r.audit_checks for r in results),
    )


def _action_item_ids(action: Any) -> tuple[str, ...]:
    """Item ids an action references (empty for item-less actions)."""
    single = getattr(action, "item_id", None)
    if single is not None:
        return (str(single),)
    many = getattr(action, "item_ids", None)
    if many is not None:
        return tuple(str(item) for item in many)
    return ()


def _action_enclosures(action: Any) -> tuple[str, ...]:
    """Enclosure names an action references (may be empty)."""
    names = []
    for attribute in ("enclosure", "source_enclosure", "target_enclosure"):
        value = getattr(action, attribute, None)
        if value is not None:
            names.append(str(value))
    return tuple(names)


def audit_fleet(fleet: FleetResult, router: HashRouter) -> int:
    """Verify the fleet's global conservation laws; returns checks run.

    Raises :class:`~repro.errors.AuditError` on the first violation.
    Checks: energy conservation (fleet joules exactly equal the sum of
    per-array joules, enclosure and controller books separately), I/O
    conservation (fleet I/O / read / response-sum books equal the
    per-array sums), and ownership (no array's action log names an item
    the router routes elsewhere, and every enclosure an action touches
    belongs to that array's namespace).
    """
    if router.n_arrays != fleet.n_arrays:
        raise AuditError(
            f"router is {router.n_arrays}-wide but the fleet result has "
            f"{fleet.n_arrays} arrays"
        )
    checks = 1
    books: list[tuple[str, float, float]] = [
        (
            "enclosure energy (J)",
            fleet.enclosure_joules,
            sum(r.replay.power.enclosure_joules for r in fleet.arrays),
        ),
        (
            "controller energy (J)",
            fleet.controller_joules,
            sum(r.replay.power.controller_joules for r in fleet.arrays),
        ),
        (
            "I/O count",
            float(fleet.io_count),
            float(sum(r.replay.io_count for r in fleet.arrays)),
        ),
        (
            "response count",
            float(fleet.response.io_count),
            float(sum(r.replay.response.io_count for r in fleet.arrays)),
        ),
        (
            "response sum (s)",
            fleet.response.response_sum,
            sum(r.replay.response.response_sum for r in fleet.arrays),
        ),
        (
            "migrated bytes",
            float(fleet.migrated_bytes),
            float(sum(r.replay.migrated_bytes for r in fleet.arrays)),
        ),
    ]
    for label, merged, derived in books:
        checks += 1
        delta = merged - derived
        if delta != 0.0:
            raise AuditError(
                f"fleet {label} book broken: merged {merged!r} != "
                f"sum of arrays {derived!r} (delta {delta!r})"
            )
    for index, result in enumerate(fleet.arrays):
        prefix = (
            f"{array_name(index)}{ARRAY_SEPARATOR}"
            if fleet.n_arrays > 1
            else ""
        )
        for record in result.replay.actions:
            checks += 1
            for item_id in _action_item_ids(record.action):
                owner = router.shard_for(item_id)
                if owner != index:
                    raise AuditError(
                        f"{array_name(index)} applied "
                        f"{record.action.kind!r} to item {item_id!r}, "
                        f"which the router assigns to {array_name(owner)}"
                    )
            for enclosure in _action_enclosures(record.action):
                if prefix and not enclosure.startswith(prefix):
                    raise AuditError(
                        f"{array_name(index)} applied "
                        f"{record.action.kind!r} to enclosure "
                        f"{enclosure!r} outside its own namespace "
                        f"{prefix!r}"
                    )
    return checks
