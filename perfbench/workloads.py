"""The benchmark's workloads: full-size (Table I) paper traces, one policy each.

Each workload is one :class:`~repro.experiments.parallel.ExperimentCell`
replayed through the public experiment-engine path.  The benchmark's
``--seed`` feeds :attr:`WorkloadSpec.seed` (0 selects the catalog's
shipped seed); see ``README.md`` for why each workload was chosen and
why the storm's fault plan keeps a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.paper_values import POWER_WATTS
from repro.experiments.parallel import ExperimentCell, PolicySpec, WorkloadSpec
from repro.faults.chaos import build_fault_plan
from repro.faults.plan import FaultPlan
from repro.workloads.items import Workload

#: Seed of the storm fault plan.  Fixed on purpose: the plan decides
#: which I/Os an outage catches, and across plan seeds the simulated
#: mean response of the storm cell ranges over 0.6-1.8 s, far wider
#: than any bound a benchmark metric may have.
STORM_FAULT_SEED = 0


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload: a catalog trace under one policy."""

    name: str
    #: Catalog name for :func:`repro.experiments.testbed.build_workload`.
    catalog: str
    policy: str
    #: :data:`repro.faults.chaos.PLAN_KINDS` entry, or ``None`` for none.
    fault_kind: str | None = None

    def spec(self, seed: int, full: bool = True) -> WorkloadSpec:
        """The workload recipe for ``seed`` (smoke-sized unless ``full``)."""
        return WorkloadSpec(name=self.catalog, full=full, seed=seed)

    def fault_plan(self, workload: Workload) -> FaultPlan | None:
        """The fault plan injected into ``workload``'s run, if any."""
        if self.fault_kind is None:
            return None
        # build_context names enclosures enc-00, enc-01, ...
        names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
        return build_fault_plan(
            self.fault_kind,
            STORM_FAULT_SEED,
            workload.duration,
            names,
            workload.item_ids(),
        )

    def cell(
        self, spec: WorkloadSpec, faults: FaultPlan | None, audit: bool = False
    ) -> ExperimentCell:
        """The engine cell replaying ``spec`` under this workload's policy."""
        return ExperimentCell(
            workload=spec, policy=PolicySpec(self.policy), faults=faults, audit=audit
        )

    @property
    def paper_watts(self) -> float:
        """The paper's enclosure power for this trace and policy (Figs 8/11/14)."""
        return POWER_WATTS[self.catalog][self.policy]


WORKLOADS: dict[str, BenchWorkload] = {
    workload.name: workload
    for workload in (
        BenchWorkload("dss-scan", "tpch", "no-power-saving"),
        BenchWorkload("fileserver-proposed", "fileserver", "proposed"),
        BenchWorkload("oltp-ddr-storm", "tpcc", "ddr", fault_kind="storm"),
    )
}
