"""Parallel experiment engine with a deterministic on-disk result cache.

Every paper figure is a grid of independent (workload × policy × config)
cells, replayed serially before this module existed.  The engine fans
cells out across :class:`concurrent.futures.ProcessPoolExecutor` workers
and memoizes finished cells on disk, keyed by a content hash of the
workload's trace, the policy (name + options), and every config field —
so re-running a figure after an unrelated code change is a cache hit,
and a parameter sweep only recomputes the cells whose inputs changed.

Design constraints:

* **Cells are self-describing and picklable.**  A cell carries
  :class:`WorkloadSpec` / :class:`PolicySpec` value objects, not live
  ``Workload`` / ``PowerPolicy`` instances; each worker rebuilds both
  from the spec (same seeds), so a parallel run is bit-identical to the
  serial one.
* **Results round-trip through JSON** (:mod:`repro.experiments.serialize`)
  on *every* path — inline, worker, and cache — so the three can never
  drift numerically.
* **One crashed cell never kills the sweep.**  Worker failures are
  captured as per-cell tracebacks in :class:`CellOutcome`; callers that
  need the result call :meth:`CellOutcome.require`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.config import DEFAULT_CONFIG, EcoStorConfig
from repro.errors import ExperimentError, ValidationError
from repro.experiments.runner import (
    STANDARD_POLICIES,
    ExperimentResult,
    run_cell,
)
from repro.experiments.serialize import result_from_dict, result_to_dict
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.baselines.base import PowerPolicy
    from repro.workloads.items import Workload

#: Bump to invalidate every existing cache entry (key-scheme changes).
#: Format 2 added the fault-plan fingerprint to the key.  Format 3
#: tracks serializer format 3 (the :mod:`repro.actions` log rides in
#: every cached result).  Format 4 added the fleet shard (router seed +
#: array count + array index + pins) to the key, so per-array cells of
#: a fleet run can never collide with whole-workload cells.  Format 5
#: hashes the trace as its ``.ecot`` image instead of a ``repr`` feed
#: per record.
CACHE_FORMAT = 5

#: Option value types allowed in specs: JSON-representable scalars.
SpecValue = bool | int | float | str

#: Progress callback: receives one human-readable line per finished cell.
ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class WorkloadSpec:
    """Self-describing, picklable recipe for one evaluation workload.

    Without ``overrides`` the spec names a catalog workload
    (:func:`repro.experiments.testbed.build_workload`): ``name`` in
    ``WORKLOAD_NAMES``, smoke or ``full`` duration, optional replicate
    ``seed`` (0 = the workload's shipped default).  With ``overrides``
    the spec parameterizes the underlying generator directly (e.g.
    ``(("duration", 5400.0), ("enclosure_count", 6))`` for the scaling
    sweep) and ``full`` is ignored.
    """

    name: str
    full: bool = False
    seed: int = 0
    overrides: tuple[tuple[str, SpecValue], ...] = ()

    @property
    def label(self) -> str:
        """Short human-readable tag used in progress lines and errors."""
        parts = [self.name, "full" if self.full else "smoke"]
        if self.seed:
            parts.append(f"seed={self.seed}")
        parts += [f"{key}={value}" for key, value in self.overrides]
        return f"{parts[0]}[{','.join(parts[1:])}]"

    def build(self) -> "Workload":
        """Materialize the workload (deterministic: same spec, same trace)."""
        from repro.experiments.testbed import build_workload

        if not self.overrides:
            return build_workload(self.name, self.full, self.seed)
        from repro.workloads import (
            build_dss_workload,
            build_fileserver_workload,
            build_oltp_workload,
        )

        builders: dict[str, Callable[..., "Workload"]] = {
            "fileserver": build_fileserver_workload,
            "tpcc": build_oltp_workload,
            "tpch": build_dss_workload,
        }
        if self.name not in builders:
            raise ExperimentError(
                f"unknown workload {self.name!r}; choose from {sorted(builders)}"
            )
        kwargs: dict[str, Any] = dict(self.overrides)
        if self.seed:
            kwargs.setdefault("seed", self.seed)
        return builders[self.name](**kwargs)


@lru_cache(maxsize=None)
def workload_fingerprint(spec: WorkloadSpec) -> str:
    """Content hash of the workload a spec builds (trace + layout).

    Covers everything replay consumes — every trace record, the item
    catalog, extra volumes, phases, duration, and enclosure count — so
    any change to workload generation changes every affected cache key.
    The trace is fed as the exact bytes of its ``.ecot`` image
    (:meth:`~repro.trace.columnar.ColumnarTrace.write_to`); the rest as
    ``repr`` lines.  Memoized per process: one fingerprint serves all
    policies of a grid.
    """
    workload = spec.build()
    digest = hashlib.sha256()

    def feed(*parts: object) -> None:
        digest.update("|".join(repr(p) for p in parts).encode("utf-8"))
        digest.update(b"\n")

    feed(workload.name, workload.duration, workload.enclosure_count)
    for item in workload.items:
        feed(item.item_id, item.size_bytes, item.enclosure_index,
             item.volume, item.kind)
    for volume, index in workload.volumes:
        feed(volume, index)
    for phase in workload.phases:
        feed(*phase)
    workload.columnar().write_to(digest.update)
    return digest.hexdigest()


@dataclass(frozen=True)
class PolicySpec:
    """Picklable recipe for one power policy.

    ``name`` indexes :data:`~repro.experiments.runner.STANDARD_POLICIES`;
    ``options`` are keyword arguments for the factory (the ablations pass
    e.g. ``(("enable_migration", False),)`` to the proposed method).
    """

    name: str
    options: tuple[tuple[str, SpecValue], ...] = ()

    @property
    def label(self) -> str:
        """Short human-readable tag used in progress lines and errors."""
        if not self.options:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.options)
        return f"{self.name}({rendered})"

    def build(self) -> "PowerPolicy":
        """Instantiate a fresh, unbound policy."""
        factory = STANDARD_POLICIES.get(self.name)
        if factory is None:
            raise ExperimentError(
                f"unknown policy {self.name!r}; "
                f"choose from {sorted(STANDARD_POLICIES)}"
            )
        return factory(**dict(self.options))


@dataclass(frozen=True)
class ShardSpec:
    """One array's slice of a fleet run (:mod:`repro.fleet`).

    Attached to an :class:`ExperimentCell`, it makes the worker build
    the full workload, keep only the records the deterministic router
    assigns to ``array_index``, and replay them on a context namespaced
    with that array's id.  Everything that decides the slice — router
    seed, fleet width, array index, pinning overrides — is part of the
    cell's cache key.
    """

    n_arrays: int
    array_index: int
    router_seed: int = 0
    #: Pinning overrides, ``(item_id, array_index)`` pairs (sorted for
    #: a canonical cache key).
    pins: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValidationError(
                f"n_arrays must be >= 1, got {self.n_arrays}"
            )
        if not 0 <= self.array_index < self.n_arrays:
            raise ValidationError(
                f"array index {self.array_index} outside fleet of "
                f"{self.n_arrays}"
            )
        for item_id, target in self.pins:
            if not 0 <= target < self.n_arrays:
                raise ValidationError(
                    f"pin {item_id!r} -> array {target} outside fleet "
                    f"of {self.n_arrays}"
                )
        object.__setattr__(self, "pins", tuple(sorted(self.pins)))

    @property
    def array_id(self) -> str | None:
        """Namespace id for this shard; ``None`` for 1-array fleets."""
        if self.n_arrays == 1:
            return None
        from repro.fleet.routing import array_name

        return array_name(self.array_index)

    @property
    def label(self) -> str:
        """Short tag used in progress lines (``array 2/3``)."""
        return f"array {self.array_index + 1}/{self.n_arrays}"


@dataclass(frozen=True)
class ExperimentCell:
    """One independently runnable (workload × policy × config) cell."""

    workload: WorkloadSpec
    policy: PolicySpec
    config: EcoStorConfig = DEFAULT_CONFIG
    audit: bool = False
    #: Fault plan injected into the run; ``None`` means zero faults.
    faults: FaultPlan | None = None
    #: Fleet shard this cell replays; ``None`` runs the whole workload
    #: on one unnamespaced array (the legacy single-array path).
    shard: ShardSpec | None = None

    @property
    def label(self) -> str:
        """``workload × policy`` tag used in progress lines and errors."""
        base = f"{self.workload.label} x {self.policy.label}"
        if self.shard is not None:
            base = f"{base} @ {self.shard.label}"
        if self.faults is not None and self.faults:
            return f"{base} + faults[{self.faults.label}]"
        return base

    def _faults_fingerprint(self) -> str | None:
        """Content hash of the cell's fault plan (``None`` when faultless).

        A cached result is only valid for the exact fault schedule that
        produced it, so anything that cannot be fingerprinted losslessly
        must never silently share a key with the faultless run — reject
        it instead of guessing.
        """
        if self.faults is None:
            return None
        if not isinstance(self.faults, FaultPlan):
            raise ExperimentError(
                f"cell {self.workload.label} x {self.policy.label} has an "
                f"un-fingerprintable fault plan of type "
                f"{type(self.faults).__name__}; pass a repro.faults.FaultPlan"
            )
        if not self.faults:
            return None
        return self.faults.fingerprint()

    def cache_key(self) -> str:
        """Deterministic content hash identifying this cell's result.

        Mixes the workload fingerprint (trace content, not just its
        name), the policy name and options, every config field, the
        audit flag, and the fault-plan fingerprint (``None`` for the
        faultless cell — an empty plan and no plan replay identically,
        so they share a key).  Any input change yields a new key;
        unrelated code changes do not.
        """
        payload = {
            "format": CACHE_FORMAT,
            "workload": {
                "name": self.workload.name,
                "fingerprint": workload_fingerprint(self.workload),
            },
            "policy": {
                "name": self.policy.name,
                "options": [list(pair) for pair in self.policy.options],
            },
            "config": asdict(self.config),
            "audit": self.audit,
            "faults": self._faults_fingerprint(),
            "shard": None
            if self.shard is None
            else {
                "n_arrays": self.shard.n_arrays,
                "array_index": self.shard.array_index,
                "router_seed": self.shard.router_seed,
                "pins": [list(pair) for pair in self.shard.pins],
            },
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell: a result, a cache hit, or a failure."""

    cell: ExperimentCell
    result: ExperimentResult | None = None
    #: Formatted traceback of the failure, or ``None`` on success.
    error: str | None = None
    from_cache: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the cell produced a result."""
        return self.error is None

    def require(self) -> ExperimentResult:
        """The cell's result, or :class:`ExperimentError` if it failed."""
        if self.result is None:
            raise ExperimentError(
                f"cell {self.cell.label} failed:\n{self.error}"
            )
        return self.result


def _execute_cell(cell: ExperimentCell) -> dict[str, Any]:
    """Run one cell and return its serialized result (worker body)."""
    workload = cell.workload.build()
    array_id = None
    if cell.shard is not None:
        from repro.fleet.routing import HashRouter
        from repro.fleet.split import shard_workload

        shard = cell.shard
        router = HashRouter(shard.n_arrays, shard.router_seed, shard.pins)
        workload = shard_workload(workload, router, shard.array_index)
        array_id = shard.array_id
    result = run_cell(
        workload, cell.policy.build(), cell.config,
        audit=cell.audit, faults=cell.faults, array_id=array_id,
    )
    return result_to_dict(result)


def _execute_cell_safe(
    cell: ExperimentCell,
) -> tuple[bool, dict[str, Any] | str, float]:
    """:func:`_execute_cell` with failure isolation and timing.

    Returns ``(True, payload, seconds)`` on success or
    ``(False, traceback, seconds)`` when the cell raised — never
    propagates, so one bad cell cannot take a worker (or the sweep)
    down with it.
    """
    started = time.perf_counter()
    try:
        payload = _execute_cell(cell)
        return True, payload, time.perf_counter() - started
    except Exception:  # check: ignore[R7] - worker isolation boundary
        return False, traceback.format_exc(), time.perf_counter() - started


class ExperimentEngine:
    """Runs experiment cells, multiprocess-parallel and cached.

    ``jobs`` is the worker count (1 = run inline in this process, still
    with caching and failure isolation).  ``cache_dir`` enables the
    on-disk result cache; ``None`` disables it.  ``progress`` (optional)
    receives one line per finished cell, in completion order.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        progress: ProgressFn | None = None,
    ) -> None:
        if jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.progress = progress
        #: Cells answered from the on-disk cache (cumulative).
        self.cache_hits = 0
        #: Cells actually replayed (cumulative) — the warm-cache
        #: invariant is ``replays == 0`` on a second identical run.
        self.replays = 0
        #: Cells that raised (cumulative).
        self.failures = 0

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, key: str) -> ExperimentResult | None:
        """Cached result for ``key``, or ``None`` (corrupt entries miss)."""
        path = self._cache_path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(entry, dict)
                or entry.get("format") != CACHE_FORMAT
                or entry.get("key") != key
            ):
                return None
            return result_from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError, ExperimentError):
            return None

    def _cache_store(
        self, key: str, cell: ExperimentCell, payload: dict[str, Any]
    ) -> None:
        """Persist one finished cell atomically (tmp file + rename)."""
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "cell": cell.label,
            "workload_fingerprint": workload_fingerprint(cell.workload),
            "result": payload,
        }
        path = self._cache_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _report(self, done: int, total: int, outcome: CellOutcome) -> None:
        if self.progress is None:
            return
        if outcome.from_cache:
            status = "cached"
        elif outcome.ok:
            status = f"ok ({outcome.elapsed_seconds:.1f} s)"
        else:
            status = "FAILED"
        self.progress(f"[{done}/{total}] {outcome.cell.label}: {status}")

    def _finish(
        self,
        index_cell_key: tuple[int, ExperimentCell, str | None],
        ok: bool,
        payload: dict[str, Any] | str,
        elapsed: float,
    ) -> tuple[int, CellOutcome]:
        """Turn one executed cell's raw payload into a recorded outcome."""
        index, cell, key = index_cell_key
        self.replays += 1
        if ok:
            assert isinstance(payload, dict)
            if key is not None:
                self._cache_store(key, cell, payload)
            outcome = CellOutcome(
                cell=cell,
                result=result_from_dict(payload),
                elapsed_seconds=elapsed,
            )
        else:
            assert isinstance(payload, str)
            self.failures += 1
            outcome = CellOutcome(cell=cell, error=payload,
                                  elapsed_seconds=elapsed)
        return index, outcome

    def run_cells(
        self, cells: Sequence[ExperimentCell]
    ) -> list[CellOutcome]:
        """Run every cell; outcomes come back in the cells' order.

        Cached cells are answered without replaying anything; the rest
        run inline (``jobs == 1``) or across the worker pool.  Failures
        are isolated per cell — inspect :attr:`CellOutcome.error` or call
        :meth:`CellOutcome.require`.
        """
        cells = list(cells)
        total = len(cells)
        outcomes: dict[int, CellOutcome] = {}
        pending: list[tuple[int, ExperimentCell, str | None]] = []
        done = 0
        for index, cell in enumerate(cells):
            key = cell.cache_key() if self.cache_dir is not None else None
            cached = self._cache_load(key) if key is not None else None
            if cached is not None:
                self.cache_hits += 1
                outcomes[index] = CellOutcome(
                    cell=cell, result=cached, from_cache=True
                )
                done += 1
                self._report(done, total, outcomes[index])
            else:
                pending.append((index, cell, key))

        if self.jobs == 1 or len(pending) <= 1:
            for item in pending:
                ok, payload, elapsed = _execute_cell_safe(item[1])
                index, outcome = self._finish(item, ok, payload, elapsed)
                outcomes[index] = outcome
                done += 1
                self._report(done, total, outcome)
        elif pending:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_execute_cell_safe, item[1]): item
                    for item in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        item = futures[future]
                        try:
                            ok, payload, elapsed = future.result()
                        except Exception:  # check: ignore[R7] - pool boundary
                            # Worker died (pool broken, unpicklable
                            # payload, ...): isolate as a cell failure.
                            ok, payload, elapsed = (
                                False, traceback.format_exc(), 0.0,
                            )
                        index, outcome = self._finish(
                            item, ok, payload, elapsed
                        )
                        outcomes[index] = outcome
                        done += 1
                        self._report(done, total, outcome)

        return [outcomes[index] for index in range(total)]


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------
def standard_cells(
    workload: WorkloadSpec,
    config: EcoStorConfig = DEFAULT_CONFIG,
    policies: Sequence[str] | None = None,
) -> list[ExperimentCell]:
    """Cells for one workload under the standard policies (figure order)."""
    chosen = list(policies) if policies is not None else list(STANDARD_POLICIES)
    return [
        ExperimentCell(workload=workload, policy=PolicySpec(name), config=config)
        for name in chosen
    ]


def comparison_results(
    name: str,
    full: bool = True,
    config: EcoStorConfig = DEFAULT_CONFIG,
    engine: "ExperimentEngine | None" = None,
) -> dict[str, ExperimentResult]:
    """All standard policies over one catalog workload, via the engine.

    Results are numerically identical to one serial
    :func:`repro.experiments.runner.run_cell` per policy.  Raises
    :class:`~repro.errors.ExperimentError` if any cell failed.
    """
    chosen = engine if engine is not None else default_engine()
    cells = standard_cells(WorkloadSpec(name=name, full=full), config)
    outcomes = chosen.run_cells(cells)
    return {o.cell.policy.name: o.require() for o in outcomes}


# ---------------------------------------------------------------------------
# process-wide engine defaults (set once by the CLI, read by the drivers)
# ---------------------------------------------------------------------------
@dataclass
class _EngineDefaults:
    """Mutable engine defaults shared by every figure driver."""

    jobs: int = 1
    cache_dir: Path | None = None
    progress: ProgressFn | None = None


_DEFAULTS = _EngineDefaults()


def configure(
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    progress: ProgressFn | None = None,
) -> None:
    """Set process-wide defaults for :func:`default_engine`.

    Called by the CLI before any figure driver runs, so every
    ``comparison`` / ablation / scaling sweep in the process picks up
    ``--jobs`` and ``--cache-dir``.  Configure *before* the first sweep:
    finished comparisons are memoized and will not re-run.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {jobs}")
        _DEFAULTS.jobs = jobs
    if cache_dir is not None:
        _DEFAULTS.cache_dir = Path(cache_dir)
    if progress is not None:
        _DEFAULTS.progress = progress


def default_engine() -> ExperimentEngine:
    """A fresh engine built from the :func:`configure` defaults."""
    return ExperimentEngine(
        jobs=_DEFAULTS.jobs,
        cache_dir=_DEFAULTS.cache_dir,
        progress=_DEFAULTS.progress,
    )
