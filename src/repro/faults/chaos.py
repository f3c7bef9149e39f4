"""Chaos harness: policies × fault plans, invariants asserted everywhere.

The evaluation's robustness counterpart (§VIII): instead of asking *how
much energy* each power-management method saves, the harness asks what
the saving *costs in availability* when the hardware misbehaves — spin-up
motors that need several tries, enclosures that drop offline, a cache
battery that dies mid-run, migrations that abort.  Every cell of the
(policy × fault-plan × seed) grid replays with the
:class:`~repro.devtools.audit.InvariantAuditor` armed, so a run that
loses an acknowledged write or serves I/O from an offline enclosure is a
*failure*, not a statistic.

Fault plans are derived from the chaos seed alone (hash-based times, no
RNG state), so any cell — and any failure — is reproducible from its
``(workload, policy, kind, seed)`` coordinates; see ``docs/faults.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ValidationError
from repro.experiments.parallel import (
    ExperimentCell,
    ExperimentEngine,
    PolicySpec,
    ProgressFn,
    WorkloadSpec,
)
from repro.experiments.runner import STANDARD_POLICIES, ExperimentResult
from repro.experiments.testbed import WORKLOAD_NAMES, build_workload
from repro.faults.model import FaultModel, _uniform
from repro.faults.plan import (
    CacheBatteryFailure,
    EnclosureOutage,
    FaultPlan,
    MigrationAbort,
    SlowSpinUp,
    SpinUpFailure,
)

#: Named fault-plan shapes the harness sweeps.  ``baseline`` is the
#: zero-fault control cell every frontier comparison needs.
PLAN_KINDS = (
    "baseline",
    "spin-up",
    "outage",
    "battery",
    "slow-spin-up",
    "migration",
    "storm",
)


def _enclosure_names(count: int) -> list[str]:
    """The names :func:`repro.simulation.build_context` will assign."""
    return [f"enc-{i:02d}" for i in range(count)]


def build_fault_plan(
    kind: str,
    seed: int,
    duration: float,
    enclosure_names: Sequence[str],
    item_ids: Sequence[str],
) -> FaultPlan:
    """One named fault plan, derived deterministically from ``seed``.

    Event times are hash-draws (:func:`repro.faults.model._uniform`)
    over the run's middle — never the first 10 % (policies are still
    warming up) nor the last 10 % (so the post-fault behaviour is
    observable).  The same ``(kind, seed, duration, names, items)``
    always yields the same plan, byte for byte.
    """
    if kind not in PLAN_KINDS:
        raise ValidationError(
            f"unknown fault-plan kind {kind!r}; choose from {PLAN_KINDS}"
        )
    if kind == "baseline":
        return FaultPlan()

    names = list(enclosure_names)

    def at(*key: object) -> float:
        """A draw in the run's [10 %, 90 %] window."""
        return duration * (0.1 + 0.8 * _uniform(seed, kind, *key))

    def pick(sequence: Sequence[str], *key: object) -> str:
        index = int(_uniform(seed, kind, *key) * len(sequence))
        return sequence[min(index, len(sequence) - 1)]

    if kind == "spin-up":
        # Background failure probability plus two guaranteed incidents
        # on distinct enclosures, so short smoke runs exercise the
        # retry/backoff path even when the model draws quiet.
        events = tuple(
            SpinUpFailure(
                enclosure=names[i % len(names)],
                after=at("event", i),
                failures=1 + i % 2,
            )
            for i in range(2)
        )
        model = FaultModel(
            seed=seed, spin_up_failure_prob=0.25, max_consecutive_failures=2
        )
        return FaultPlan(events=events, model=model)
    if kind == "outage":
        # Two enclosures drop offline for ~5 % of the run each.
        events = tuple(
            EnclosureOutage(
                enclosure=pick(names, "victim", i),
                start=(start := at("start", i)),
                end=min(duration * 0.95, start + 0.05 * duration),
            )
            for i in range(2)
        )
        return FaultPlan(events=events)
    if kind == "battery":
        return FaultPlan(events=(CacheBatteryFailure(time=at("battery")),))
    if kind == "slow-spin-up":
        start = at("window")
        events = (
            SlowSpinUp(
                enclosure=pick(names, "victim"),
                start=start,
                end=min(duration * 0.95, start + 0.2 * duration),
                multiplier=4.0,
            ),
        )
        model = FaultModel(
            seed=seed, slow_spin_up_prob=0.5, slow_spin_up_multiplier=3.0
        )
        return FaultPlan(events=events, model=model)
    if kind == "migration":
        items = sorted(item_ids)
        chosen = {pick(items, "item", i) for i in range(4)}
        events = tuple(
            MigrationAbort(item_id=item, after=at("abort", item))
            for item in sorted(chosen)
        )
        return FaultPlan(events=events)
    # storm: everything at once — the all-mechanisms stress cell.
    storm_start = at("storm-outage")
    events = (
        SpinUpFailure(
            enclosure=names[0], after=at("storm-spin-up"), failures=2
        ),
        EnclosureOutage(
            enclosure=pick(names, "storm-victim"),
            start=storm_start,
            end=min(duration * 0.95, storm_start + 0.05 * duration),
        ),
        CacheBatteryFailure(time=at("storm-battery")),
    )
    model = FaultModel(
        seed=seed,
        spin_up_failure_prob=0.15,
        max_consecutive_failures=2,
        slow_spin_up_prob=0.25,
        slow_spin_up_multiplier=3.0,
    )
    return FaultPlan(events=events, model=model)


@dataclass(frozen=True)
class ChaosCell:
    """Outcome of one (policy × fault-plan × seed) grid cell."""

    policy: str
    kind: str
    seed: int
    plan: FaultPlan
    result: ExperimentResult | None = None
    #: Traceback when the cell failed (audit violation, crash); else None.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the cell replayed with every invariant intact."""
        return self.error is None


@dataclass
class ChaosReport:
    """Everything one chaos sweep measured, renderable as text."""

    workload: str
    seeds: tuple[int, ...]
    cells: list[ChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell passed its invariant audit."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[ChaosCell]:
        """Cells that crashed or violated an invariant."""
        return [cell for cell in self.cells if not cell.ok]

    def render(self) -> str:
        """Per-cell table plus the energy-vs-availability frontier."""
        lines = [
            f"chaos sweep — {self.workload}, "
            f"seeds {', '.join(str(s) for s in self.seeds)}",
            "",
            f"{'policy':<16} {'faults':<14} {'seed':>5} {'status':<7} "
            f"{'encl W':>8} {'denied':>6} {'delayed':>7} {'max delay':>10} "
            f"{'unavail':>8}",
        ]
        for cell in self.cells:
            if cell.result is None:
                lines.append(
                    f"{cell.policy:<16} {cell.kind:<14} {cell.seed:>5} "
                    f"{'FAILED':<7}"
                )
                continue
            a = cell.result.replay.availability
            lines.append(
                f"{cell.policy:<16} {cell.kind:<14} {cell.seed:>5} "
                f"{'ok':<7} {cell.result.enclosure_watts:>8.0f} "
                f"{a.denied_ios:>6} {a.delayed_ios:>7} "
                f"{a.max_queue_delay:>9.1f}s {a.unavailability_seconds:>7.0f}s"
            )
        lines += ["", self._render_frontier()]
        if not self.ok:
            lines.append("")
            for cell in self.failures:
                lines.append(
                    f"FAILED {cell.policy} x {cell.kind} seed={cell.seed}:"
                )
                lines.append(str(cell.error))
        return "\n".join(lines)

    def _render_frontier(self) -> str:
        """Energy saved vs availability lost, averaged over fault cells.

        Energy saving is measured against the same policy's *baseline*
        (zero-fault) cell; availability cost is the mean fault-induced
        queueing delay per I/O plus outright unavailability.
        """
        lines = [
            "energy vs availability (mean over fault cells, per policy):",
            f"  {'policy':<16} {'base W':>8} {'fault W':>8} "
            f"{'delay/IO':>10} {'denied':>7} {'cooldowns':>9}",
        ]
        for policy in sorted({cell.policy for cell in self.cells}):
            rows = [
                c for c in self.cells if c.policy == policy and c.ok
                and c.result is not None
            ]
            base = [c for c in rows if c.kind == "baseline"]
            faulted = [c for c in rows if c.kind != "baseline"]
            if not rows:
                lines.append(f"  {policy:<16} (no surviving cells)")
                continue
            base_watts = (
                sum(c.result.enclosure_watts for c in base) / len(base)
                if base
                else float("nan")
            )
            if not faulted:
                lines.append(f"  {policy:<16} {base_watts:>8.0f}")
                continue
            watts = sum(c.result.enclosure_watts for c in faulted) / len(
                faulted
            )
            delay = sum(
                c.result.replay.availability.fault_delay_seconds
                / max(1, c.result.replay.io_count)
                for c in faulted
            ) / len(faulted)
            denied = sum(
                c.result.replay.availability.denied_ios for c in faulted
            ) / len(faulted)
            cooldowns = sum(
                c.result.replay.availability.degraded_cooldowns
                for c in faulted
            ) / len(faulted)
            lines.append(
                f"  {policy:<16} {base_watts:>8.0f} {watts:>8.0f} "
                f"{delay:>9.4f}s {denied:>7.1f} {cooldowns:>9.1f}"
            )
        return "\n".join(lines)


#: Default (flash_count, archive_count) grid the tier frontier sweeps.
#: ``(0, 0)`` is the HDD-only control cell; the rest add flash and/or
#: archive devices so the three cost axes actually trade off.
TIER_CONFIGS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1))


@dataclass(frozen=True)
class TierFrontierCell:
    """Outcome of one tier-configuration cell of the frontier sweep."""

    flash: int
    archive: int
    #: Total enclosure energy across every tier, in joules.
    energy_joules: float
    #: Mean read response time, in seconds.
    mean_read_response: float
    #: Total placed-byte capacity cost across tiers (docs/tiers.md).
    capacity_cost: float
    audit_checks: int
    #: Traceback when the cell failed (audit violation, crash); else None.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the cell replayed with every invariant intact."""
        return self.error is None

    @property
    def label(self) -> str:
        """Compact ``flash/archive`` coordinates for tables."""
        return f"f{self.flash}a{self.archive}"


@dataclass
class TierFrontierReport:
    """Energy vs latency vs capacity cost across tier configurations."""

    workload: str
    cells: list[TierFrontierCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every configuration passed its invariant audit."""
        return all(cell.ok for cell in self.cells)

    def pareto(self) -> set[str]:
        """Labels of configurations not dominated on all three axes."""
        survivors = [cell for cell in self.cells if cell.ok]
        frontier = set()
        for cell in survivors:
            dominated = any(
                other is not cell
                and other.energy_joules <= cell.energy_joules
                and other.mean_read_response <= cell.mean_read_response
                and other.capacity_cost <= cell.capacity_cost
                and (
                    other.energy_joules < cell.energy_joules
                    or other.mean_read_response < cell.mean_read_response
                    or other.capacity_cost < cell.capacity_cost
                )
                for other in survivors
            )
            if not dominated:
                frontier.add(cell.label)
        return frontier

    def render(self) -> str:
        """Per-configuration table with Pareto-frontier markers."""
        frontier = self.pareto()
        lines = [
            f"tier frontier — {self.workload}, tiered-lifecycle, "
            "auditor armed",
            "",
            f"{'config':<8} {'flash':>5} {'archive':>7} {'energy kJ':>10} "
            f"{'read ms':>8} {'cap cost':>9} {'checks':>6}  frontier",
        ]
        for cell in self.cells:
            if not cell.ok:
                lines.append(
                    f"{cell.label:<8} {cell.flash:>5} {cell.archive:>7} "
                    f"{'FAILED':>10}"
                )
                continue
            marker = "*" if cell.label in frontier else ""
            lines.append(
                f"{cell.label:<8} {cell.flash:>5} {cell.archive:>7} "
                f"{cell.energy_joules / 1e3:>10.1f} "
                f"{cell.mean_read_response * 1e3:>8.2f} "
                f"{cell.capacity_cost:>9.2f} {cell.audit_checks:>6}  "
                f"{marker}"
            )
        lines.append("")
        lines.append(
            "* = Pareto-optimal: no other configuration is at least as "
            "good on energy, latency, and capacity cost at once"
        )
        if not self.ok:
            lines.append("")
            for cell in self.cells:
                if not cell.ok:
                    lines.append(f"FAILED {cell.label}:")
                    lines.append(str(cell.error))
        return "\n".join(lines)


def run_tier_frontier(
    workload: str = "fileserver",
    full: bool = False,
    configs: Sequence[tuple[int, int]] = TIER_CONFIGS,
    progress: ProgressFn | None = None,
) -> TierFrontierReport:
    """Sweep tier configurations under the lifecycle policy, audited.

    Each cell replays ``workload`` on a tiered testbed with the given
    ``(flash_count, archive_count)`` shape under
    :class:`~repro.baselines.tiered.TieredLifecyclePolicy` with the
    :class:`~repro.devtools.audit.InvariantAuditor` armed, then reads
    the closing per-tier books.  The report marks the Pareto frontier
    over (energy, read latency, capacity cost) — the tier-shape
    counterpart of the fault sweep's energy-vs-availability frontier.
    """
    import traceback

    from repro.baselines.tiered import TieredLifecyclePolicy
    from repro.config import DEFAULT_CONFIG
    from repro.errors import ReproError
    from repro.experiments.runner import run_on_context
    from repro.monitoring.tiers import TierBooks
    from repro.simulation import build_context

    if workload not in WORKLOAD_NAMES:
        raise ValidationError(
            f"unknown workload {workload!r}; choose from {WORKLOAD_NAMES}"
        )
    built = build_workload(workload, full)
    report = TierFrontierReport(workload=workload)
    for flash, archive in configs:
        label = f"f{flash}a{archive}"
        try:
            context = build_context(
                DEFAULT_CONFIG,
                built.enclosure_count,
                flash_count=flash,
                archive_count=archive,
            )
            result = run_on_context(
                context, built, TieredLifecyclePolicy(), audit=True
            )
        except ReproError:
            report.cells.append(
                TierFrontierCell(
                    flash=flash,
                    archive=archive,
                    energy_joules=0.0,
                    mean_read_response=0.0,
                    capacity_cost=0.0,
                    audit_checks=0,
                    error=traceback.format_exc(),
                )
            )
            if progress is not None:
                progress(f"tier-frontier {label}: FAILED")
            continue
        tiers = TierBooks(context.virtualization, context.controller).report()
        report.cells.append(
            TierFrontierCell(
                flash=flash,
                archive=archive,
                energy_joules=sum(tier.energy_joules for tier in tiers),
                mean_read_response=result.mean_read_response,
                capacity_cost=sum(tier.cost_units for tier in tiers),
                audit_checks=result.audit_checks,
            )
        )
        if progress is not None:
            progress(
                f"tier-frontier {label}: ok ({result.audit_checks} checks)"
            )
    return report


def run_chaos(
    workload: str = "tpcc",
    full: bool = False,
    seeds: Sequence[int] = (11,),
    policies: Sequence[str] | None = None,
    kinds: Sequence[str] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressFn | None = None,
) -> ChaosReport:
    """Sweep policies × fault plans × seeds with the auditor armed.

    Cells run through the parallel :class:`ExperimentEngine` (``jobs``
    workers, optional on-disk cache — the cache key covers the fault
    plan, so chaos cells never collide with faultless sweeps).  Every
    cell replays with ``audit=True``; an invariant violation surfaces as
    that cell's failure and flips :attr:`ChaosReport.ok`.
    """
    if workload not in WORKLOAD_NAMES:
        raise ValidationError(
            f"unknown workload {workload!r}; choose from {WORKLOAD_NAMES}"
        )
    chosen_policies = (
        list(policies) if policies is not None else sorted(STANDARD_POLICIES)
    )
    chosen_kinds = list(kinds) if kinds is not None else list(PLAN_KINDS)
    built = build_workload(workload, full)
    names = _enclosure_names(built.enclosure_count)
    item_ids = [item.item_id for item in built.items]

    grid: list[tuple[str, str, int, FaultPlan]] = []
    for seed in seeds:
        for kind in chosen_kinds:
            plan = build_fault_plan(
                kind, seed, built.duration, names, item_ids
            )
            for policy in chosen_policies:
                grid.append((policy, kind, seed, plan))

    cells = [
        ExperimentCell(
            workload=WorkloadSpec(name=workload, full=full),
            policy=PolicySpec(name=policy),
            audit=True,
            faults=plan,
        )
        for policy, kind, seed, plan in grid
    ]
    engine = ExperimentEngine(
        jobs=jobs, cache_dir=cache_dir, progress=progress
    )
    outcomes = engine.run_cells(cells)

    report = ChaosReport(workload=workload, seeds=tuple(seeds))
    for (policy, kind, seed, plan), outcome in zip(grid, outcomes):
        report.cells.append(
            ChaosCell(
                policy=policy,
                kind=kind,
                seed=seed,
                plan=plan,
                result=outcome.result,
                error=outcome.error,
            )
        )
    return report
