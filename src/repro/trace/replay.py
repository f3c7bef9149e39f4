"""Trace replayer: drives the storage system from a logical I/O trace.

The btreplay-analogue of the paper's evaluation (§VII-A.2, Fig 7): it
replays timestamped logical I/Os through the storage controller, feeds
the application monitor, and gives the active power policy control at its
checkpoints.  "Our trace replay tool issues I/O for moving data items,
preload data items, and flushing delayed write I/Os" — those side-effect
I/Os happen inside the policy callbacks via the controller, so their
energy and latency costs land in the same accounting as application I/O.

Since the :mod:`repro.engine` refactor the replayer is a thin façade:
each :meth:`TraceReplayer.run` builds a single-use
:class:`~repro.engine.kernel.SimulationKernel`, hooks the auditor onto
it, pumps the records through, and :func:`assemble_result` packages
the context's monitors into a :class:`ReplayResult`.  All event ordering
lives in the kernel (and is pinned bit-identical by the golden test in
``tests/trace/test_replay_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.audit import InvariantAuditor
    from repro.monitoring.timeline import PowerTimeline

from repro.baselines.base import PowerPolicy
from repro.engine.kernel import ReplayOutcome, SimulationKernel
from repro.faults.report import AvailabilityReport, availability_from_context
from repro.monitoring.application import ResponseStats
from repro.simulation import SimulationContext
from repro.storage.meter import PowerReading
from repro.trace.records import LogicalIORecord


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace under one policy."""

    policy_name: str
    duration_seconds: float
    io_count: int
    response: ResponseStats
    power: PowerReading
    migrated_bytes: int
    migration_count: int
    determinations: int
    cache_hit_ratio: float
    spin_up_count: int
    spin_down_count: int
    #: How injected faults affected service (all-zero without faults,
    #: equal to the default so zero-fault results stay bit-identical
    #: with pre-fault replays).
    availability: AvailabilityReport = AvailabilityReport()

    # Non-field attribute (class-level default, no annotation on
    # purpose — an annotation would make it a dataclass field; set
    # per-instance via object.__setattr__ in assemble_result): the
    # run's full action log, a tuple of
    # :class:`~repro.actions.records.ActionRecord`.  Kept out of
    # ``asdict``/``==`` by design; the experiment serializer carries it
    # explicitly, and the golden replay test pins it by hash.
    actions = ()

    @property
    def mean_response(self) -> float:
        """Mean response time across all I/Os, in seconds."""
        return self.response.mean_response

    @property
    def mean_read_response(self) -> float:
        """Mean response time of read I/Os, in seconds."""
        return self.response.mean_read_response


class TraceReplayer:
    """Replays a logical trace under a power policy.

    ``timeline`` (optional) is a
    :class:`~repro.monitoring.timeline.PowerTimeline`: when given, the
    replayer samples it as virtual time passes, producing the §III-B
    power-consumption series alongside the run-level averages.

    ``auditor`` (optional) is a
    :class:`~repro.devtools.audit.InvariantAuditor`: when given, it is
    invoked after every policy checkpoint (i.e. once per monitoring
    period) and once at the end of the run, raising
    :class:`~repro.errors.AuditError` if any simulation invariant —
    energy conservation, capacity accounting, monotonic time — breaks.
    """

    def __init__(
        self,
        context: SimulationContext,
        policy: PowerPolicy,
        timeline: "PowerTimeline | None" = None,
        auditor: "InvariantAuditor | None" = None,
    ) -> None:
        self.context = context
        self.policy = policy
        self.timeline = timeline
        self.auditor = auditor
        policy.bind(context)

    def run(
        self,
        records: Sequence[LogicalIORecord] | Iterable[LogicalIORecord],
        duration: float | None = None,
    ) -> ReplayResult:
        """Replay ``records`` (must be time-ordered); returns the result.

        ``duration`` fixes the measurement window end; by default the
        last record's timestamp is used.  The final window is still
        closed properly: pending policy checkpoints up to the end run,
        dirty cache data is flushed, and every enclosure's energy
        timeline is settled to the end.

        Boundary convention: a policy checkpoint scheduled exactly at a
        record's timestamp runs *before* that record is submitted (the
        checkpoint closes the monitoring window ending at that instant;
        the record opens the next one).  Tests pin this ordering — the
        parallel experiment engine depends on every replay, serial or
        not, making the same decision sequence.

        An empty trace replays to a well-defined zero-I/O result when a
        positive ``duration`` is given (idle power over the window).
        Without one there is no measurement window at all, which raises
        :class:`~repro.errors.ReplayError` — as does a non-positive
        declared ``duration``.

        Any record iterable is packed into a
        :class:`~repro.trace.columnar.ColumnarTrace` before the kernel
        runs; pass one directly (e.g.
        :meth:`repro.workloads.items.Workload.columnar`) to reuse columns
        that already exist.
        """
        context = self.context
        policy = self.policy
        kernel = SimulationKernel(context, policy, timeline=self.timeline)
        if self.auditor is not None:
            self.auditor.hook(kernel)
        outcome = kernel.replay(records, duration=duration)
        return assemble_result(context, policy, outcome)


def assemble_result(
    context: SimulationContext, policy: PowerPolicy, outcome: ReplayOutcome
) -> ReplayResult:
    """Package a finished replay's monitors into a :class:`ReplayResult`.

    The one assembly a fresh replay (:meth:`TraceReplayer.run`) and a
    resumed one (:meth:`repro.persistence.SnapshotSession.resume`) share,
    so a resumed result is built by the same code as an uninterrupted one.
    """
    final = outcome.final
    controller = context.controller
    power = context.meter.read(final, controller)
    availability = availability_from_context(context, policy, final)
    result = ReplayResult(
        policy_name=policy.name,
        duration_seconds=final,
        io_count=outcome.io_count,
        response=context.app_monitor.response_stats(),
        power=power,
        migrated_bytes=controller.migrated_bytes,
        migration_count=controller.migration_count,
        determinations=policy.determinations,
        cache_hit_ratio=controller.cache_hit_ratio,
        spin_up_count=sum(e.spin_up_count for e in context.enclosures),
        spin_down_count=sum(e.spin_down_count for e in context.enclosures),
        availability=availability,
    )
    object.__setattr__(result, "actions", tuple(context.executor.log))
    return result
