"""Measurement harness: the end-to-end run and the traced per-layer run.

Both runs replay one :class:`~perfbench.workloads.BenchWorkload` cell
through :meth:`ExperimentEngine.run_cells` with ``jobs=1`` and a fresh
(cold) on-disk result cache per repeat, exactly the path ``ecostor run``,
``experiments`` and ``figures`` take.  Every cell run also counts toward
the correctness books (:class:`Report`): a cell fails if it raised, if
its result differs from the reference result of the same run, if the
cache answer differs from the cold one, or if the audited pass fired.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.actions.records import ActionOutcome
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments import parallel, testbed
from repro.experiments.parallel import CellOutcome, ExperimentCell, ExperimentEngine, WorkloadSpec
from repro.experiments.runner import ExperimentResult
from repro.experiments.serialize import result_to_dict
from repro.faults.plan import FaultPlan
from repro.simulation import build_context
from repro.workloads.items import Workload

from perfbench import hostspeed, probes
from perfbench.tracer import Tracer, TraceTotals, installed
from perfbench.workloads import BenchWorkload

#: Cold set-ups per traced run.
TRACED_SETUP_REPEATS = 3
#: A full-size run whose enclosure power is further than this from the
#: paper's figure is wrong, not merely imprecise (today: 3-12 %).
PAPER_TOLERANCE_PCT = 25.0
#: Relative float tolerance between the audited and unaudited results.
AUDIT_REL_TOL = 1e-12


@dataclass
class Report:
    """Metrics of one run plus its correctness books."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the JSON result.
    lines: list[str] = field(default_factory=list)

    def cell(self, checks: dict[str, bool]) -> None:
        """Count one attempted cell; it failed if any named check is false."""
        self.attempted += 1
        broken = [what for what, ok in checks.items() if not ok]
        if broken:
            self.failed += 1
            self.problems.extend(broken)

    def check(self, ok: bool, what: str) -> None:
        """A run-level check (no cell of its own): failing it fails the run."""
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @property
    def failed_frac(self) -> float:
        """Failed cells divided by attempted cells."""
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        """Whether every cell and check passed."""
        return self.attempted > 0 and self.failed == 0

    def to_json(self) -> dict[str, Any]:
        """The result object the benchmark prints as its last line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def canonical(result: ExperimentResult, drop: tuple[str, ...] = ()) -> str:
    """Canonical JSON of a result (NaN-safe equality), minus ``drop`` keys."""
    payload = result_to_dict(result)
    for key in drop:
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def paper_error_pct(workload: BenchWorkload, result: ExperimentResult) -> float:
    """|simulated − paper| enclosure power as a percentage of the paper's."""
    paper = workload.paper_watts
    return abs(result.enclosure_watts - paper) / paper * 100.0


class RunFailed(Exception):
    """The reference cell failed, so nothing else can be measured."""

    def __init__(self, report: Report) -> None:
        super().__init__("; ".join(report.problems))
        self.report = report


def _untraced(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


@dataclass
class Setup:
    """One cold set-up: its time, and the workload and fault plan it built."""

    seconds: float
    spec: WorkloadSpec
    workload: Workload
    faults: FaultPlan | None


def cold_setup(
    bench: BenchWorkload, seed: int, full: bool, tracer: Tracer | None = None
) -> Setup:
    """Build, fingerprint, context-build and install from empty caches."""
    testbed.build_workload.cache_clear()
    parallel.workload_fingerprint.cache_clear()
    gc.collect()
    call = tracer.call if tracer is not None else _untraced
    start = perf_counter()
    spec = bench.spec(seed, full)
    workload = call("workloads.build", spec.build)
    call("experiments.fingerprint", parallel.workload_fingerprint, spec)
    faults = bench.fault_plan(workload)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count, faults=faults)
    workload.install(context)
    return Setup(perf_counter() - start, spec, workload, faults)


class CellRunner:
    """Runs one cell through the engine with a fresh result cache each time."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def cold(self, cell: ExperimentCell) -> tuple[float, CellOutcome, Path]:
        """Time ``run_cells([cell])`` on an empty cache; returns the cache dir."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        gc.collect()
        start = perf_counter()
        outcome = engine.run_cells([cell])[0]
        return perf_counter() - start, outcome, cache_dir

    def warm(self, cell: ExperimentCell, cache_dir: Path) -> CellOutcome:
        """Re-run ``cell`` against the cache a cold run filled."""
        return ExperimentEngine(jobs=1, cache_dir=cache_dir).run_cells([cell])[0]


def _same(outcome: CellOutcome, reference: str) -> bool:
    return outcome.result is not None and canonical(outcome.result) == reference


def _reference(
    report: Report, bench: BenchWorkload, setup: Setup, runner: CellRunner, full: bool
) -> tuple[ExperimentCell, ExperimentResult]:
    """Warm-up cell: its result is the reference every later cell must equal."""
    cell = bench.cell(setup.spec, setup.faults)
    _, outcome, cache_dir = runner.cold(cell)
    shutil.rmtree(cache_dir)
    result = outcome.result
    if result is None:
        report.cell({f"warm-up cell raised:\n{outcome.error}": False})
        raise RunFailed(report)
    checks = {}
    records = len(setup.workload.records)
    checks[f"replay served {result.replay.io_count} of {records} records"] = (
        result.replay.io_count == records
    )
    if full:
        error = paper_error_pct(bench, result)
        checks[
            f"enclosure power {result.enclosure_watts:.1f} W is {error:.1f} % "
            f"from the paper's {bench.paper_watts} W"
        ] = error <= PAPER_TOLERANCE_PCT
    report.cell(checks)
    return cell, result


def _audited(
    report: Report,
    bench: BenchWorkload,
    setup: Setup,
    runner: CellRunner,
    reference: ExperimentResult,
) -> ExperimentResult | None:
    """The InvariantAuditor-armed pass; outside every timed region.

    Each audit check settles every enclosure's energy books to the
    check's time, which splits the energy sums into more terms, so the
    audited result may differ from the unaudited one in the last bits
    of a float (seen on ``oltp-ddr-storm``).  It is compared within
    :data:`AUDIT_REL_TOL`; everything else must be equal.
    """
    cell = bench.cell(setup.spec, setup.faults, audit=True)
    _, outcome, cache_dir = runner.cold(cell)
    shutil.rmtree(cache_dir)
    result = outcome.result
    report.cell(
        {
            f"audited cell failed:\n{outcome.error}": result is not None,
            "auditor ran no checks": result is not None and result.audit_checks > 0,
            "audited result differs from the unaudited one": result is not None
            and _close(
                {**result_to_dict(result), "audit_checks": 0},
                result_to_dict(reference),
            ),
        }
    )
    return result


def _close(left: Any, right: Any) -> bool:
    """Equal payloads, floats within :data:`AUDIT_REL_TOL` of each other."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=AUDIT_REL_TOL) or (
            math.isnan(left) and math.isnan(right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _close(value, right[key]) for key, value in left.items()
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(map(_close, left, right))
    return bool(left == right)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value: all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# end-to-end run (tracing off)
# ----------------------------------------------------------------------
def run_end_to_end(
    bench: BenchWorkload, seed: int, seconds: float, workdir: Path, full: bool = True
) -> Report:
    """Set-up time, replay throughput, memory and the simulated books.

    Each timed repeat is one cold set-up followed by one cold cell, with
    a host-speed probe before, between and after them, so each time is
    taken at full host speed (:mod:`perfbench.hostspeed`).  A cold
    set-up leaves the memo caches holding the workload it built, so the
    cell that follows finds them warm.
    """
    report = Report()
    runner = CellRunner(workdir)
    setup = cold_setup(bench, seed, full)
    records = len(setup.workload.records)
    cell, reference_result = _reference(report, bench, setup, runner, full)
    reference = canonical(reference_result)

    setup_times: list[float] = []
    times: list[float] = []
    factors: list[float] = []
    raw_times: list[float] = []
    cache_dir: Path | None = None
    deadline = perf_counter() + seconds
    # The probe after one cell is also the probe before the next set-up.
    after = hostspeed.probe_seconds()
    while not times or perf_counter() < deadline:
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        before = after
        setup = cold_setup(bench, seed, full)
        middle = hostspeed.probe_seconds()
        elapsed, outcome, cache_dir = runner.cold(cell)
        after = hostspeed.probe_seconds()
        factor = hostspeed.host_factor(middle, after)
        setup_times.append(setup.seconds / hostspeed.host_factor(before, middle))
        times.append(elapsed / factor)
        factors.append(factor)
        raw_times.append(elapsed)
        report.cell(
            {
                f"timed cell failed:\n{outcome.error}": outcome.ok,
                "timed repeat differs from the reference result": _same(outcome, reference),
            }
        )
    assert cache_dir is not None
    warm = runner.warm(cell, cache_dir)
    shutil.rmtree(cache_dir)
    report.cell(
        {
            "warm re-run was not answered from the cache": warm.from_cache,
            "cached result differs from the cold result": _same(warm, reference),
        }
    )
    _audited(report, bench, setup, runner, reference_result)

    setup_q = quartiles(setup_times)
    time_q = quartiles(times)
    raw_q = quartiles(raw_times)
    factor_q = quartiles(factors)
    watts = reference_result.enclosure_watts
    report.metrics = {
        "setup_s": (setup_q[1], "s"),
        "records_per_s": (records / time_q[1], "records/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_enclosure_w": (watts, "W"),
        "sim_mean_resp_ms": (reference_result.mean_response * 1000.0, "ms"),
        "paper_power_match_pct": (100.0 - paper_error_pct(bench, reference_result), "%"),
    }
    report.lines += [
        f"workload {bench.name} seed {seed}: {records} records, "
        f"{setup.workload.enclosure_count} enclosures, policy {bench.policy}"
        + (f", faults {bench.fault_kind}" if bench.fault_kind else ""),
        f"setup_s: median of {len(setup_times)} cold set-ups at full host speed, "
        f"quartiles {setup_q[0]:.4f} / {setup_q[2]:.4f} s",
        f"records_per_s: median of {len(times)} cold-cache run_cells at full host "
        f"speed, cell time quartiles {time_q[0]:.4f} / {time_q[1]:.4f} / {time_q[2]:.4f} s",
        f"host factor quartiles {factor_q[0]:.3f} / {factor_q[1]:.3f} / {factor_q[2]:.3f}; "
        f"raw cell time quartiles {raw_q[0]:.4f} / {raw_q[1]:.4f} / {raw_q[2]:.4f} s",
        f"paper enclosure power {bench.paper_watts} W",
    ]
    return report


# ----------------------------------------------------------------------
# traced run (per-layer metrics)
# ----------------------------------------------------------------------
def _timed(metrics: dict[str, float], totals: TraceTotals, names: tuple[str, ...]) -> None:
    for name in names:
        metrics[f"{name}_s"] = totals.seconds(name)
        metrics[f"{name}_self_s"] = totals.self_seconds(name)


def _layer_counts(
    totals: TraceTotals, result: ExperimentResult, cache_dir: Path
) -> dict[str, float]:
    """Deterministic per-layer counts of one traced cell."""
    replayer = totals.captured[probes.REPLAY]
    context = replayer.context
    replay = result.replay
    applied = sum(1 for record in replay.actions if record.outcome is ActionOutcome.APPLIED)
    availability = replay.availability
    policy = replayer.policy
    return {
        "engine.events": totals.counts.get("engine.events", 0),
        "engine.checkpoints": totals.counts.get("engine.checkpoints", 0),
        "storage.submits": context.controller.logical_io_count,
        "storage.cache_pages": totals.calls.get("storage.cache", 0),
        "storage.physical_ios": context.storage_monitor.physical_io_count,
        "storage.cache_hit_ratio": replay.cache_hit_ratio,
        "storage.spin_ups": replay.spin_up_count,
        "storage.migrated_bytes": replay.migrated_bytes,
        "core.determinations": (
            policy.determinations if isinstance(policy, EnergyEfficientPolicy) else 0
        ),
        "actions.plans": totals.calls.get("actions.apply", 0),
        "actions.applied": applied,
        "actions.not_applied": len(replay.actions) - applied,
        "faults.delayed_ios": availability.delayed_ios,
        "faults.denied_ios": availability.denied_ios,
        "faults.delay_sim_s": availability.fault_delay_seconds,
        "experiments.result_bytes": sum(p.stat().st_size for p in cache_dir.iterdir()),
    }


#: Units of the per-layer count metrics (timed metrics are in seconds).
COUNT_UNITS = {
    "engine.events": "count",
    "engine.checkpoints": "count",
    "storage.submits": "count",
    "storage.cache_pages": "count",
    "storage.physical_ios": "count",
    "storage.cache_hit_ratio": "fraction",
    "storage.spin_ups": "count",
    "storage.migrated_bytes": "B",
    "core.determinations": "count",
    "actions.plans": "count",
    "actions.applied": "count",
    "actions.not_applied": "count",
    "faults.delayed_ios": "count",
    "faults.denied_ios": "count",
    "faults.delay_sim_s": "s",
    "experiments.result_bytes": "B",
    "audit.checks": "count",
    "tracing.overhead_frac": "fraction",
}


def run_traced(
    bench: BenchWorkload,
    seed: int,
    seconds: float,
    workdir: Path,
    full: bool = True,
    spans_path: Path | None = None,
) -> Report:
    """Per-layer wall and self times, counts, and the tracing overhead.

    Untraced and traced cells alternate until ``seconds`` have passed;
    times are medians over the traced cells, counts must repeat exactly.
    """
    report = Report()
    runner = CellRunner(workdir)
    tracer = Tracer(group_roots=(probes.REPLAY,))
    tracer.calibrate()

    setup_samples: list[dict[str, float]] = []
    with installed(tracer, probes.SETUP):
        for _ in range(TRACED_SETUP_REPEATS):
            setup = cold_setup(bench, seed, full, tracer)
            sample: dict[str, float] = {}
            _timed(sample, tracer.take(), probes.SETUP_TIMED)
            setup_samples.append(sample)
    cell, reference_result = _reference(report, bench, setup, runner, full)
    reference = canonical(reference_result)
    layers = probes.layers(faulted=setup.faults is not None)

    untraced: list[float] = []
    traced_raw: list[float] = []
    samples: list[dict[str, float]] = []
    counts: list[dict[str, float]] = []
    last: TraceTotals | None = None
    deadline = perf_counter() + seconds
    while not untraced or perf_counter() < deadline:
        plain = Tracer()
        with installed(plain, probes.REPLAY_ONLY):
            _, outcome, cache_dir = runner.cold(cell)
        shutil.rmtree(cache_dir)
        untraced.append(plain.take().seconds(probes.REPLAY))
        report.cell(
            {
                f"untraced cell failed:\n{outcome.error}": outcome.ok,
                "untraced repeat differs from the reference result": _same(outcome, reference),
            }
        )

        tracer.calibrate()
        with installed(tracer, layers):
            _, outcome, cache_dir = runner.cold(cell)
            cold = tracer.take()
            warm = runner.warm(cell, cache_dir)
            warm_totals = tracer.take()
        report.cell(
            {
                f"traced cell failed:\n{outcome.error}": outcome.ok,
                "tracing changed the result": _same(outcome, reference),
            }
        )
        report.cell(
            {
                "traced warm re-run was not answered from the cache": warm.from_cache,
                "cached result differs from the cold result": _same(warm, reference),
            }
        )
        if outcome.result is not None:
            traced_raw.append(cold.raw_wall[probes.REPLAY])
            sample = {
                "engine.replay_s": cold.seconds(probes.REPLAY),
                "engine.self_s": cold.self_seconds(probes.REPLAY),
            }
            _timed(sample, cold, probes.TIMED)
            _timed(sample, warm_totals, ("experiments.cache_load",))
            samples.append(sample)
            counts.append(_layer_counts(cold, outcome.result, cache_dir))
            last = cold
        shutil.rmtree(cache_dir)

    with installed(tracer, layers):
        audited = _audited(report, bench, setup, runner, reference_result)
        audit_totals = tracer.take()
    if last is None or audited is None:
        raise RunFailed(report)

    metrics: dict[str, tuple[float, str]] = {}
    for group in (setup_samples, samples):
        for name in group[0]:
            metrics[name] = (statistics.median(s[name] for s in group), "s")
    metrics["audit.check_s"] = (audit_totals.seconds("audit.check"), "s")
    metrics["audit.check_self_s"] = (audit_totals.self_seconds("audit.check"), "s")
    for name, value in counts[0].items():
        report.check(
            all(c[name] == value for c in counts),
            f"count {name} differs across traced repeats",
        )
        metrics[name] = (value, COUNT_UNITS[name])
    metrics["audit.checks"] = (audited.audit_checks, COUNT_UNITS["audit.checks"])
    untraced_replay = statistics.median(untraced)
    traced_replay = statistics.median(traced_raw)
    metrics["tracing.overhead_frac"] = (
        traced_replay / untraced_replay - 1.0,
        COUNT_UNITS["tracing.overhead_frac"],
    )
    report.metrics = metrics

    # The span tree has no gaps or overlaps: raw self times under the
    # replay add up to its raw duration.  With the tracer's own cost
    # taken out they must land within the tracing overhead of the
    # untraced replay time.
    raw_replay = last.raw_wall[probes.REPLAY]
    raw_sum = last.group_raw_self[probes.REPLAY]
    corrected_sum = last.group_self[probes.REPLAY]
    report.check(
        abs(raw_sum - raw_replay) <= 1e-6 * raw_replay,
        f"raw replay self times add up to {raw_sum:.6f} s, not {raw_replay:.6f} s",
    )
    report.check(
        abs(corrected_sum - untraced_replay) <= max(raw_replay - untraced_replay, 0.0),
        f"corrected replay self times add up to {corrected_sum:.4f} s, further "
        f"from the untraced {untraced_replay:.4f} s than the tracing overhead",
    )
    if spans_path is not None:
        tracer.write(spans_path, last)

    inside, outside = tracer.overhead
    report.lines += [
        f"workload {bench.name} seed {seed}: traced run, {len(samples)} traced "
        f"and {len(untraced)} untraced cells",
        f"replay median untraced {untraced_replay:.4f} s, traced {traced_replay:.4f} s; "
        f"tracer cost per span {inside * 1e6:.3f} us inside + {outside * 1e6:.3f} us in parent",
        f"replay self times: corrected sum {corrected_sum:.4f} s, raw sum {raw_sum:.4f} s",
    ]
    return report
