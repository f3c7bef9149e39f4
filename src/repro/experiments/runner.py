"""Experiment runner: one (workload × policy) cell of the evaluation.

Builds a fresh simulated storage system (the Fig 5 testbed), installs
the workload, replays its trace under the chosen policy, and packages
the measurements every figure of §VII needs.  Running all four methods
on the same workload gives one column group of the paper's bar charts
(:func:`repro.experiments.parallel.comparison_results`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.intervals import IntervalCurve, interval_curve
from repro.analysis.metrics import WindowResponse, window_read_responses
from repro.baselines.base import PowerPolicy
from repro.baselines.ddr import DDRPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.baselines.pdc import PDCPolicy
from repro.baselines.tiered import TieredLifecyclePolicy
from repro.config import DEFAULT_CONFIG, EcoStorConfig
from repro.core.manager import EnergyEfficientPolicy
from repro.faults.plan import FaultPlan
from repro.simulation import SimulationContext, build_context
from repro.trace.replay import ReplayResult, TraceReplayer
from repro.workloads.items import Workload

PolicyFactory = Callable[[], PowerPolicy]

#: The paper's four evaluated methods, in figure order.
STANDARD_POLICIES: dict[str, PolicyFactory] = {
    "no-power-saving": NoPowerSavingPolicy,
    "proposed": EnergyEfficientPolicy,
    "pdc": PDCPolicy,
    "ddr": DDRPolicy,
}

#: Every runnable policy: the paper's four plus the multi-tier
#: extensions.  Policies here but not in :data:`STANDARD_POLICIES`
#: need a testbed with flash and archive devices
#: (:func:`repro.simulation.build_context`) and are excluded from the
#: figure-reproduction comparisons.
ALL_POLICIES: dict[str, PolicyFactory] = {
    **STANDARD_POLICIES,
    "tiered-lifecycle": TieredLifecyclePolicy,
}

#: Policies whose testbed must be built with flash and archive tiers.
TIERED_POLICIES = frozenset({"tiered-lifecycle"})


@dataclass(frozen=True)
class ExperimentResult:
    """Everything measured from one (workload, policy) run."""

    workload_name: str
    policy_name: str
    replay: ReplayResult
    #: Cumulative I/O-interval curve across all enclosures (Figs 17–19).
    interval_curve: IntervalCurve
    #: Per-phase read responses (TPC-H query windows; empty otherwise).
    window_responses: list[WindowResponse]
    #: Average power of the disk enclosures only, in watts.
    enclosure_watts: float
    #: Average power of the storage controller, in watts.
    controller_watts: float
    #: Invariant-audit checks that ran (0 unless ``run_cell(audit=True)``).
    audit_checks: int = 0

    @property
    def migrated_bytes(self) -> int:
        """Bytes migrated between enclosures during the run."""
        return self.replay.migrated_bytes

    @property
    def determinations(self) -> int:
        """Number of placement determinations the policy made."""
        return self.replay.determinations

    @property
    def mean_response(self) -> float:
        """Mean response time across all I/Os, in seconds."""
        return self.replay.mean_response

    @property
    def mean_read_response(self) -> float:
        """Mean response time of read I/Os, in seconds."""
        return self.replay.mean_read_response

    def to_dict(self) -> dict:
        """Lossless plain-JSON-types view of this result.

        Round-trips exactly through :meth:`from_dict` — the parallel
        engine relies on this to keep worker and cache results
        bit-identical to the serial path.
        """
        from repro.experiments.serialize import result_to_dict

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        from repro.experiments.serialize import result_from_dict

        return result_from_dict(data)


def run_cell(
    workload: Workload,
    policy: PowerPolicy,
    config: EcoStorConfig = DEFAULT_CONFIG,
    audit: bool = False,
    faults: FaultPlan | None = None,
    array_id: str | None = None,
) -> ExperimentResult:
    """Replay one workload under one policy on a fresh testbed.

    With ``audit=True`` an :class:`~repro.devtools.audit.InvariantAuditor`
    rides along: every monitoring period the run's energy, capacity, and
    time accounting is re-derived and any drift raises
    :class:`~repro.errors.AuditError` instead of silently corrupting the
    reported numbers.

    ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` into the
    testbed (spin-up failures, outages, battery loss, ...); ``None`` or
    an empty plan replays bit-identically to the pre-fault engine.

    ``array_id`` namespaces the testbed's component names for fleet
    runs (:mod:`repro.fleet`); ``None`` keeps the legacy names and the
    legacy bit-identical results.
    """
    context = build_context(
        config, workload.enclosure_count, faults=faults, array_id=array_id
    )
    return run_on_context(context, workload, policy, audit=audit)


def run_on_context(
    context: SimulationContext,
    workload: Workload,
    policy: PowerPolicy,
    audit: bool = False,
) -> ExperimentResult:
    """Install ``workload`` on a fresh ``context`` and replay it.

    The body of every evaluation cell: :func:`run_cell` calls it on the
    HDD-only testbed, and the tier commands call it on a testbed built
    with flash/archive devices, then read
    :class:`~repro.monitoring.tiers.TierBooks` from the same context.
    """
    workload.install(context)
    auditor = None
    if audit:
        from repro.devtools.audit import InvariantAuditor

        auditor = InvariantAuditor(context)
    replayer = TraceReplayer(context, policy, auditor=auditor)
    replay = replayer.run(workload.columnar(), duration=workload.duration)
    curve = interval_curve(
        context.storage_monitor.all_intervals(), context.config.break_even_time
    )
    windows = (
        window_read_responses(context.app_monitor.response_samples, workload.phases)
        if workload.phases
        else []
    )
    return ExperimentResult(
        workload_name=workload.name,
        policy_name=policy.name,
        replay=replay,
        interval_curve=curve,
        window_responses=windows,
        enclosure_watts=replay.power.enclosure_watts,
        controller_watts=replay.power.controller_watts,
        audit_checks=auditor.checks_run if auditor is not None else 0,
    )

