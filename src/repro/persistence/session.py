"""Snapshot sessions: run a replay durably, resume it bit-identically.

A :class:`SnapshotSession` owns one (workload, policy) replay the way
:class:`~repro.trace.replay.TraceReplayer` does, but with a durability
surface on top:

* :meth:`SnapshotSession.run` replays the trace and, every N record
  boundaries, captures the *entire* mutable simulation state — kernel
  clock and checkpoint slot, controller books, enclosure power state and
  energy meters, cache partitions, both monitors, the power timeline,
  the policy's planner state, fault-clock draw cursors, the degraded
  -mode gate, and the full typed action log — into one atomic
  ``.ecsn`` file (:mod:`repro.persistence.format`).
* :meth:`SnapshotSession.resume` restores such a snapshot into a
  freshly built session and pumps the remaining records through
  :meth:`~repro.engine.kernel.SimulationKernel.resume_replay`.  The
  replay prologue is *not* re-run (the restored state already reflects
  it) and the epilogue is identical, so the final
  :class:`~repro.trace.replay.ReplayResult` — energy books,
  availability report, timeline samples, action log — is bit-identical
  to the uninterrupted run.  The crash harness
  (:mod:`repro.persistence.harness`) proves this at seeded random kill
  points.

Construction wiring is deliberately rebuilt, never restored: a resumed
session goes through the normal :func:`~repro.simulation.build_context`
/ ``workload.install`` path first, then overwrites every component's
mutable state.  Snapshots therefore stay small and survive refactors of
anything that is not state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.config import DEFAULT_CONFIG
from repro.engine.kernel import ReplayOutcome, SimulationKernel
from repro.errors import SnapshotError, ValidationError
from repro.faults.plan import FaultPlan
from repro.faults.report import availability_from_context
from repro.monitoring.timeline import PowerTimeline
from repro.persistence.format import snapshot_filename, write_snapshot
from repro.trace.replay import ReplayResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.audit import InvariantAuditor
    from repro.simulation import SimulationContext

__all__ = ["RunSpec", "SnapshotSession"]

#: ``hook(count, ts)`` observer fired at record boundaries.
RecordHook = Callable[[int, float], None]


@dataclass(frozen=True)
class RunSpec:
    """Plain-data description of one snapshot-capable replay.

    A spec is everything needed to rebuild the session deterministically
    — it travels inside every snapshot's ``meta`` so ``ecostor resume``
    can reconstruct the exact run a snapshot came from, and so a
    snapshot taken for one run can never be restored into a different
    one (the loader compares specs and refuses mismatches).

    The fault plan is carried as its canonical JSON
    (:meth:`~repro.faults.plan.FaultPlan.to_json`) to keep the spec
    plain JSON-typed data.
    """

    workload: str
    policy: str
    full: bool = False
    seed: int = 0
    audit: bool = False
    timeline_interval: float | None = None
    faults_json: str | None = None
    #: Fleet coordinates (:mod:`repro.fleet`): this session replays
    #: array ``array_index`` of an ``n_arrays``-wide fleet routed with
    #: ``router_seed``.  The defaults (``1``/``0``/``0``) describe a
    #: standalone single-array run and keep the spec — and any snapshot
    #: carrying it — bit-compatible with pre-fleet sessions.
    n_arrays: int = 1
    array_index: int = 0
    router_seed: int = 0

    def __post_init__(self) -> None:
        from repro.experiments.runner import ALL_POLICIES
        from repro.experiments.testbed import WORKLOAD_NAMES

        if self.workload not in WORKLOAD_NAMES:
            raise ValidationError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {WORKLOAD_NAMES}"
            )
        if self.policy not in ALL_POLICIES:
            raise ValidationError(
                f"unknown policy {self.policy!r}; "
                f"expected one of {tuple(ALL_POLICIES)}"
            )
        if self.timeline_interval is not None and self.timeline_interval <= 0:
            raise ValidationError("timeline_interval must be positive")
        if self.n_arrays < 1:
            raise ValidationError("n_arrays must be at least 1")
        if not 0 <= self.array_index < self.n_arrays:
            raise ValidationError(
                f"array_index {self.array_index} outside fleet of "
                f"{self.n_arrays}"
            )

    def fault_plan(self) -> FaultPlan | None:
        """The spec's fault plan, decoded; ``None`` without faults."""
        if self.faults_json is None:
            return None
        return FaultPlan.from_json(self.faults_json)

    def to_dict(self) -> dict:
        """Plain-JSON-types view; round-trips through :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec serialized by :meth:`to_dict`.

        Snapshots written when a spec could pick between two replay
        pumps carry a ``columnar`` key; the choice never changed any
        state, so it is dropped.
        """
        return cls(**{k: v for k, v in data.items() if k != "columnar"})


class SnapshotSession:
    """One snapshot-capable replay, built from a :class:`RunSpec`."""

    def __init__(self, spec: RunSpec) -> None:
        from repro.experiments.runner import ALL_POLICIES, TIERED_POLICIES
        from repro.experiments.testbed import build_workload
        from repro.simulation import build_context

        self.spec = spec
        self.workload = build_workload(spec.workload, spec.full, spec.seed)
        array_id: str | None = None
        if spec.n_arrays > 1:
            from repro.fleet.routing import HashRouter
            from repro.fleet.split import shard_workload

            router = HashRouter(spec.n_arrays, spec.router_seed)
            self.workload = shard_workload(
                self.workload, router, spec.array_index
            )
            array_id = router.array_id(spec.array_index)
        # Tier-needing policies get one flash and one archive device on
        # top of the HDDs; the construction wiring is rebuilt identically
        # on resume, so the tier structure never travels in a snapshot.
        extra_tier = 1 if spec.policy in TIERED_POLICIES else 0
        self.context: SimulationContext = build_context(
            DEFAULT_CONFIG,
            self.workload.enclosure_count,
            flash_count=extra_tier,
            archive_count=extra_tier,
            faults=spec.fault_plan(),
            array_id=array_id,
        )
        self.workload.install(self.context)
        self.timeline: PowerTimeline | None = None
        if spec.timeline_interval is not None:
            self.timeline = PowerTimeline(
                self.context.enclosures,
                interval_seconds=spec.timeline_interval,
            )
        self.policy = ALL_POLICIES[spec.policy]()
        self.policy.bind(self.context)
        self.auditor: InvariantAuditor | None = None
        self.kernel = SimulationKernel(
            self.context, self.policy, timeline=self.timeline
        )
        if spec.audit:
            from repro.devtools.audit import InvariantAuditor

            self.auditor = InvariantAuditor(self.context)
            self.auditor.hook(self.kernel)
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def capture(self, count: int, ts: float) -> dict:
        """Snapshot payload at the boundary after record ``count``.

        Strictly read-only: every component's ``snapshot_state`` copies
        books without settling meters or touching derived caches, so
        taking a snapshot cannot perturb the run (the crash harness's
        bit-identity assertion would catch it if one did).
        """
        context = self.context
        states: dict[str, dict] = {
            "kernel": self.kernel.snapshot_state(),
            "controller": context.controller.snapshot_state(),
            "virtualization": context.virtualization.snapshot_state(),
            "cache": context.cache.snapshot_state(),
            "app_monitor": context.app_monitor.snapshot_state(),
            "storage_monitor": context.storage_monitor.snapshot_state(),
            "policy": self.policy.snapshot_state(),
            "executor": context.require_executor().snapshot_state(),
        }
        for enclosure in context.enclosures:
            states[f"enclosure:{enclosure.name}"] = enclosure.snapshot_state()
        if self.timeline is not None:
            states["timeline"] = self.timeline.snapshot_state()
        if context.fault_clock is not None:
            states["fault_clock"] = context.fault_clock.snapshot_state()
        if self.auditor is not None:
            states["auditor"] = self.auditor.snapshot_state()
        return {
            "meta": {
                "spec": self.spec.to_dict(),
                "count": count,
                "ts": ts,
                "policy_name": self.policy.name,
            },
            "states": states,
        }

    # ------------------------------------------------------------------
    # run / resume
    # ------------------------------------------------------------------
    def run(
        self,
        snapshot_every: int = 0,
        snapshot_dir: str | Path | None = None,
        record_hook: RecordHook | None = None,
    ) -> ReplayResult:
        """Replay from the beginning, snapshotting every N records.

        ``snapshot_every=0`` disables snapshots (a plain replay).
        ``record_hook`` is an extra boundary observer — the crash
        harness injects its kill there, *after* any due snapshot has
        been written, exactly as a real crash would interleave.
        """
        if snapshot_every < 0:
            raise ValidationError("snapshot_every must be non-negative")
        if snapshot_every and snapshot_dir is None:
            raise ValidationError(
                "snapshot_every requires a snapshot_dir to write into"
            )
        hook: RecordHook | None = record_hook
        if snapshot_every:
            directory = Path(snapshot_dir)  # type: ignore[arg-type]
            directory.mkdir(parents=True, exist_ok=True)

            def hook(count: int, ts: float) -> None:
                if count % snapshot_every == 0:
                    write_snapshot(
                        directory / snapshot_filename(count),
                        self.capture(count, ts),
                    )
                    self.snapshots_written += 1
                if record_hook is not None:
                    record_hook(count, ts)

        if hook is not None:
            self.kernel.set_record_hook(hook)
        outcome = self.kernel.replay(
            self.workload.columnar(), duration=self.workload.duration
        )
        return self._assemble(outcome)

    def resume(self, payload: dict) -> ReplayResult:
        """Restore a verified snapshot payload and finish the replay.

        The payload must come from :func:`~repro.persistence.format.load_snapshot`
        (which already proved it bytewise intact) and must have been
        taken for this session's exact :class:`RunSpec` — anything else
        raises :class:`~repro.errors.SnapshotError` before a single
        component is touched.
        """
        meta = payload["meta"]
        # Normalize through RunSpec so snapshots written before a field
        # existed (e.g. the fleet coordinates) compare by their default
        # values instead of by key absence.
        snapshot_spec = meta.get("spec")
        if isinstance(snapshot_spec, dict):
            try:
                snapshot_spec = RunSpec.from_dict(snapshot_spec).to_dict()
            except (TypeError, ValidationError):
                pass  # unparseable spec: compare (and refuse) raw
        if snapshot_spec != self.spec.to_dict():
            raise SnapshotError(
                "snapshot was taken for a different run: "
                f"snapshot spec {meta.get('spec')!r} != session spec "
                f"{self.spec.to_dict()!r}"
            )
        states = payload["states"]
        context = self.context
        self.kernel.restore_state(self._state(states, "kernel"))
        context.controller.restore_state(self._state(states, "controller"))
        context.virtualization.restore_state(
            self._state(states, "virtualization")
        )
        context.cache.restore_state(self._state(states, "cache"))
        context.app_monitor.restore_state(self._state(states, "app_monitor"))
        context.storage_monitor.restore_state(
            self._state(states, "storage_monitor")
        )
        self.policy.restore_state(self._state(states, "policy"))
        context.require_executor().restore_state(
            self._state(states, "executor")
        )
        for enclosure in context.enclosures:
            enclosure.restore_state(
                self._state(states, f"enclosure:{enclosure.name}")
            )
        if self.timeline is not None:
            self.timeline.restore_state(self._state(states, "timeline"))
        if context.fault_clock is not None:
            context.fault_clock.restore_state(
                self._state(states, "fault_clock")
            )
        if self.auditor is not None:
            self.auditor.restore_state(self._state(states, "auditor"))
        outcome = self.kernel.resume_replay(
            self.workload.columnar(),
            self.workload.duration,
            meta["count"],
            meta["ts"],
        )
        return self._assemble(outcome)

    @staticmethod
    def _state(states: dict, key: str) -> dict:
        if key not in states:
            raise SnapshotError(
                f"snapshot is missing component state {key!r}"
            )
        return states[key]

    # ------------------------------------------------------------------
    # result assembly — must stay in lockstep with TraceReplayer.run
    # ------------------------------------------------------------------
    def _assemble(self, outcome: ReplayOutcome) -> ReplayResult:
        """Package the context's monitors into a :class:`ReplayResult`.

        Field-for-field the tail of
        :meth:`repro.trace.replay.TraceReplayer.run` — the crash
        harness compares these results to ones produced by the replayer
        path, so the two assemblies must not drift.
        """
        context = self.context
        policy = self.policy
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
        if context.executor is not None:
            object.__setattr__(
                result, "actions", tuple(context.executor.log)
            )
        return result
