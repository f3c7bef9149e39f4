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
  it), and the epilogue and :func:`~repro.trace.replay.assemble_result`
  are the ones a fresh replay runs, so the final
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

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.capture import Snapshottable
from repro.config import DEFAULT_CONFIG
from repro.engine.kernel import SimulationKernel
from repro.errors import SnapshotError, ValidationError
from repro.faults.plan import FaultPlan
from repro.monitoring.timeline import PowerTimeline
from repro.persistence.format import snapshot_filename, write_snapshot
from repro.trace.replay import ReplayResult, assemble_result

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.audit import InvariantAuditor
    from repro.simulation import SimulationContext

__all__ = ["RunSpec", "SnapshotSession", "read_meta"]

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
    #: standalone single-array run.
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
        """Rebuild a spec serialized by :meth:`to_dict`."""
        return cls(**data)


@contextmanager
def _reading(part: str) -> Iterator[None]:
    """Refuse a verified payload whose ``part`` has the wrong shape."""
    try:
        yield
    except (KeyError, TypeError, SnapshotError) as exc:
        raise SnapshotError(
            f"snapshot {part} is malformed: {type(exc).__name__}: {exc}"
        ) from exc


def read_meta(payload: dict) -> tuple[RunSpec, int, float]:
    """The run spec, record count and timestamp a snapshot was taken at.

    Raises :class:`~repro.errors.SnapshotError` when ``meta`` lacks a
    field or a field has the wrong shape: ``spec`` must be a mapping,
    ``count`` a non-negative ``int`` and ``ts`` a finite non-negative
    number (``bool`` is neither).
    """
    with _reading("meta"):
        meta = payload["meta"]
        spec, count, ts = meta["spec"], meta["count"], meta["ts"]
        if not isinstance(spec, dict):
            raise SnapshotError(
                f"snapshot meta.spec is malformed: not a mapping: {spec!r}"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise SnapshotError(
                "snapshot meta.count is malformed: not a non-negative "
                f"int: {count!r}"
            )
        if (
            isinstance(ts, bool)
            or not isinstance(ts, (int, float))
            or not (math.isfinite(ts) and ts >= 0)
        ):
            raise SnapshotError(
                "snapshot meta.ts is malformed: not a finite non-negative "
                f"number: {ts!r}"
            )
        return RunSpec.from_dict(spec), count, ts


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
        return {
            "meta": {"spec": self.spec.to_dict(), "count": count, "ts": ts},
            "states": {
                name: component.snapshot_state()
                for name, component in self._components().items()
            },
        }

    def _components(self) -> dict[str, Snapshottable]:
        """Every stateful component of this session, by snapshot key."""
        context = self.context
        components: dict[str, Snapshottable] = {
            "kernel": self.kernel,
            "controller": context.controller,
            "virtualization": context.virtualization,
            "cache": context.cache,
            "app_monitor": context.app_monitor,
            "storage_monitor": context.storage_monitor,
            "policy": self.policy,
            "executor": context.executor,
        }
        for enclosure in context.enclosures:
            components[f"enclosure:{enclosure.name}"] = enclosure
        if self.timeline is not None:
            components["timeline"] = self.timeline
        if context.fault_clock is not None:
            components["fault_clock"] = context.fault_clock
        if self.auditor is not None:
            components["auditor"] = self.auditor
        return components

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
        return assemble_result(self.context, self.policy, outcome)

    def resume(self, payload: dict) -> ReplayResult:
        """Restore a verified snapshot payload and finish the replay."""
        count, ts = self.restore(payload)
        outcome = self.kernel.resume_replay(
            self.workload.columnar(), self.workload.duration, count, ts
        )
        return assemble_result(self.context, self.policy, outcome)

    def restore(self, payload: dict) -> tuple[int, float]:
        """Restore a verified snapshot payload into this fresh session.

        Returns the record count and timestamp the snapshot was taken
        at, where :meth:`resume` continues the replay.  The payload must
        come from :func:`~repro.persistence.format.load_snapshot` (which
        already proved it bytewise intact), must have been taken for
        this session's exact :class:`RunSpec`, and must hold exactly the
        component states :meth:`capture` writes for it; anything else
        raises :class:`~repro.errors.SnapshotError` before a single
        component is touched.  A component state that lacks a key or has
        the wrong shape is refused with a :class:`~repro.errors.SnapshotError`
        naming the component, which is left as it was; components
        restored before it keep their restored state, so the session is
        not reusable after that.
        """
        _, count, ts = read_meta(payload)
        if payload["meta"]["spec"] != self.spec.to_dict():
            raise SnapshotError(
                "snapshot was taken for a different run: "
                f"snapshot spec {payload['meta']['spec']!r} != session spec "
                f"{self.spec.to_dict()!r}"
            )
        components = self._components()
        states = payload["states"]
        found = set(states) if isinstance(states, dict) else set()
        if found != set(components):
            raise SnapshotError(
                "snapshot does not hold this run's components: missing "
                f"component states {sorted(set(components) - found)}, "
                f"extra {sorted(found - set(components))}"
            )
        for name, component in components.items():
            with _reading(f"component state {name!r}"):
                component.restore_state(states[name])
        return count, ts
