"""Command-line interface: ``python -m repro`` / ``ecostor``.

Subcommands::

    ecostor experiments [--workloads ...] [--policies ...] [--jobs N]
                        [--cache-dir DIR] [--full] [--verify-serial]
    ecostor figures [--full] [--only fig06|fs|tpcc|tpch|intervals|tables]
    ecostor ablations [--full]
    ecostor run WORKLOAD POLICY [--full] [--audit]
                [--snapshot-every N --snapshot-dir DIR]
    ecostor tiers WORKLOAD [--full] [--flash N] [--archive N]
                  [--replicate-hot] [--audit] [--out PATH]
    ecostor resume SNAPSHOT
    ecostor crash-test [--workload W] [--policies P ...] [--trials N]
                       [--snapshot-every N] [--seed S] [--report PATH]
    ecostor patterns WORKLOAD [--full]
    ecostor ssd-study / ecostor scaling-study
    ecostor export-trace WORKLOAD PATH [--full]
    ecostor replay-trace PATH POLICY [--enclosures N] [--msr] [--ecot]
    ecostor trace pack INPUT OUTPUT [--msr]
    ecostor trace info PATH [--shards N [--router-seed S]]
    ecostor fleet run WORKLOAD POLICY [--arrays N] [--router-seed S]
                      [--audit] [--outage-arrays K ...] [--out PATH]
                      [--jobs N] [--cache-dir DIR]
    ecostor fleet report PATH
    ecostor intervals WORKLOAD POLICY [--full]
    ecostor check [PATHS ...] [--format text|json] [--select CHECK ...]
                  [--baseline FILE] [--no-baseline] [--write-baseline]
                  [--list-checks]
    ecostor chaos [--workload W] [--seeds N ...] [--faults KIND ...]
                  [--policies P ...] [--tiers] [--full] [--jobs N]
                  [--cache-dir DIR]

``experiments`` runs a (workload × policy) sweep through the parallel
experiment engine — ``--jobs`` workers, results memoized on disk under
``--cache-dir``, per-cell failure isolation, and ``--verify-serial`` to
re-run serially and assert bit-identical results; ``figures``
regenerates every paper table/figure as text (``--jobs``/``--cache-dir``
route its sweeps through the same engine); ``run`` replays one workload
under one policy (``--audit`` verifies the energy / capacity / time
invariants every monitoring period; ``--snapshot-every`` writes
crash-safe ``.ecsn`` state snapshots (format 5: each component's
attributes minus its construction wiring) that ``resume`` continues
from bit-identically, refusing a file of an older format with exit 2,
and ``crash-test`` proves that with a seeded kill/resume sweep — see
``docs/snapshots.md``); ``export-trace`` /
``replay-trace`` round-trip logical traces through CSV (or ingest real
MSR-Cambridge block traces with ``--msr``, or packed ``.ecot`` columnar
traces — see ``docs/trace-format.md``); ``trace pack`` converts a CSV
or MSR trace into the ``.ecot`` binary format and ``trace info`` prints
a packed file's header (``--shards N`` adds the per-array histogram a
fleet router would produce); ``fleet run`` shards one workload across
``--arrays`` independent arrays with a deterministic router, merges the
per-array books, and audits global conservation — fleet energy exactly
equal to the sum of per-array energies (see ``docs/fleet.md``) —
while ``fleet report`` re-renders a saved fleet JSON; ``intervals``
draws a
Fig 17-19 curve in the terminal; ``check`` runs the static checker
(:mod:`repro.devtools.analysis`: domain conventions R1–R10,
dimensional consistency and planner purity/determinism D101–D204)
with the committed ``analysis-baseline.json`` applied; ``chaos`` sweeps
policies against
seeded fault plans (:mod:`repro.faults`) with the invariant auditor
armed and reports the energy-vs-availability frontier (``--tiers``
sweeps tier configurations instead and reports the
energy-vs-latency-vs-capacity-cost frontier); ``tiers`` replays one
workload on the multi-tier FLASH/HDD/ARCHIVE testbed under the
temperature-driven lifecycle policy and prints the per-tier
energy/capacity/latency books (see ``docs/tiers.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro import units
from repro.analysis.report import gigabytes, seconds, watts
from repro.experiments.runner import (
    ALL_POLICIES,
    STANDARD_POLICIES,
    run_cell,
)
from repro.experiments.testbed import WORKLOAD_NAMES, build_workload

if TYPE_CHECKING:
    from repro.workloads.items import Workload

_FIGURE_SECTIONS = ("tables", "fig06", "fs", "tpcc", "tpch", "intervals")


def _progress(line: str) -> None:
    """Engine progress callback: one line per finished cell, to stderr."""
    print(line, file=sys.stderr)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Attach the parallel-engine flags shared by the sweep commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment cells (1 = run inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the on-disk result cache (default: no cache)",
    )


def _apply_engine_options(args: argparse.Namespace) -> None:
    """Route this process's sweeps through an engine built from the flags."""
    if args.jobs != 1 or args.cache_dir is not None:
        from repro.experiments import parallel

        parallel.configure(
            jobs=args.jobs, cache_dir=args.cache_dir, progress=_progress
        )


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_experiment_table
    from repro.experiments import parallel

    workloads = args.workloads or list(WORKLOAD_NAMES)
    policies = args.policies or list(STANDARD_POLICIES)
    cells = [
        parallel.ExperimentCell(
            workload=parallel.WorkloadSpec(name=workload, full=args.full),
            policy=parallel.PolicySpec(name=policy),
        )
        for workload in workloads
        for policy in policies
    ]
    engine = parallel.ExperimentEngine(
        jobs=args.jobs, cache_dir=args.cache_dir, progress=_progress
    )
    outcomes = engine.run_cells(cells)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failed:
        print(f"FAILED {outcome.cell.label}:\n{outcome.error}", file=sys.stderr)
    for workload in workloads:
        results = {
            o.cell.policy.name: o.result
            for o in outcomes
            if o.ok and o.cell.workload.name == workload
        }
        if results:
            print(render_experiment_table(f"Experiments — {workload}", results))
            print()
    print(
        f"cells: {len(outcomes)} total, {engine.cache_hits} cached, "
        f"{engine.replays} replayed, {engine.failures} failed"
    )
    status = 1 if failed else 0
    if args.verify_serial:
        serial = parallel.ExperimentEngine(jobs=1)
        serial_outcomes = serial.run_cells(cells)
        mismatched = [
            o.cell.label
            for o, s in zip(outcomes, serial_outcomes)
            if o.ok != s.ok or (o.ok and o.result != s.result)
        ]
        if mismatched:
            print("verify-serial: MISMATCH in " + ", ".join(mismatched))
            status = 1
        else:
            print(
                "verify-serial: parallel results identical to serial replay "
                f"({len(serial_outcomes)} cells)"
            )
    return status


def _cmd_figures(args: argparse.Namespace) -> int:
    _apply_engine_options(args)
    from repro.experiments import (
        fig06_patterns,
        fig08_10_fileserver,
        fig11_13_tpcc,
        fig14_16_tpch,
        fig17_19_intervals,
        tables,
    )

    sections = {
        "tables": tables.run,
        "fig06": fig06_patterns.run,
        "fs": fig08_10_fileserver.run,
        "tpcc": fig11_13_tpcc.run,
        "tpch": fig14_16_tpch.run,
        "intervals": fig17_19_intervals.run,
    }
    chosen = args.only or list(_FIGURE_SECTIONS)
    for name in chosen:
        print(sections[name](full=args.full))
        print()
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    _apply_engine_options(args)
    print(ablations.run(full=args.full))
    return 0


def _print_replay_report(workload_label: str, replay: object) -> None:
    """Shared ``run``/``resume`` report over one ReplayResult."""
    print(f"workload:        {workload_label}")
    print(f"policy:          {replay.policy_name}")
    print(f"enclosure power: {watts(replay.power.enclosure_watts)}")
    print(f"controller:      {watts(replay.power.controller_watts)}")
    print(f"mean response:   {seconds(replay.mean_response)}")
    print(f"read response:   {seconds(replay.mean_read_response)}")
    print(f"migrated:        {gigabytes(replay.migrated_bytes)}")
    print(f"determinations:  {replay.determinations}")
    print(f"spin-ups:        {replay.spin_up_count}")
    print(f"cache hit ratio: {replay.cache_hit_ratio:.2f}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import UsageError

    if bool(args.snapshot_every) != (args.snapshot_dir is not None):
        raise UsageError(
            "--snapshot-every and --snapshot-dir must be given together"
        )
    # Every run is a snapshot session; without --snapshot-every it
    # writes no snapshot.  With it, every Nth record boundary lands an
    # atomic .ecsn file that `ecostor resume` can continue from (see
    # docs/snapshots.md).
    from repro.persistence import RunSpec, SnapshotSession

    spec = RunSpec(
        workload=args.workload,
        policy=args.policy,
        full=args.full,
        audit=args.audit,
    )
    session = SnapshotSession(spec)
    replay = session.run(args.snapshot_every, args.snapshot_dir)
    _print_replay_report(
        f"{session.workload.name} ({session.workload.io_count} I/Os)",
        replay,
    )
    if args.audit:
        print(
            f"audit:           {session.auditor.checks_run} invariant "
            "checks, 0 violations"
        )
    if args.snapshot_every:
        print(
            f"snapshots:       {session.snapshots_written} written to "
            f"{args.snapshot_dir}"
        )
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    import json

    from repro.baselines.tiered import TieredLifecyclePolicy
    from repro.config import DEFAULT_CONFIG
    from repro.experiments.runner import run_on_context
    from repro.monitoring.tiers import TierBooks
    from repro.simulation import build_context

    workload = build_workload(args.workload, args.full)
    context = build_context(
        DEFAULT_CONFIG,
        workload.enclosure_count,
        flash_count=args.flash,
        archive_count=args.archive,
    )
    policy = TieredLifecyclePolicy(replicate_hot=args.replicate_hot)
    result = run_on_context(context, workload, policy, audit=args.audit)
    tier_reports = TierBooks(context.virtualization, context.controller).report()
    energy_joules = sum(report.energy_joules for report in tier_reports)
    capacity_cost = sum(report.cost_units for report in tier_reports)
    print(f"workload:        {workload.name} ({workload.io_count} I/Os)")
    print(f"policy:          {result.policy_name}")
    print(f"enclosure power: {watts(result.enclosure_watts)}")
    print(f"mean response:   {seconds(result.mean_response)}")
    print(f"read response:   {seconds(result.mean_read_response)}")
    print(f"capacity cost:   {capacity_cost:.2f} units")
    if args.audit:
        print(
            f"audit:           {result.audit_checks} invariant checks, "
            "0 violations"
        )
    print()
    print(
        f"{'tier':<10} {'devices':>7} {'placed':>10} {'in':>10} "
        f"{'out':>10} {'energy kJ':>10} {'svc s':>8} {'I/Os':>8}"
    )
    for report in tier_reports:
        print(
            f"{report.tier:<10} {len(report.devices):>7} "
            f"{gigabytes(report.placed_bytes):>10} "
            f"{gigabytes(report.bytes_in):>10} "
            f"{gigabytes(report.bytes_out):>10} "
            f"{report.energy_joules / 1e3:>10.1f} "
            f"{report.service_seconds:>8.1f} {report.serviced_ios:>8}"
        )
    if args.out is not None:
        document = {
            "format": 1,
            "workload": workload.name,
            "policy": result.policy_name,
            "io_count": workload.io_count,
            "audit_checks": result.audit_checks,
            "energy_joules": energy_joules,
            "capacity_cost": capacity_cost,
            "mean_read_response": result.mean_read_response,
            "tiers": [report.to_dict() for report in tier_reports],
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote per-tier report to {args.out}", file=sys.stderr)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.persistence import SnapshotSession, load_snapshot, read_meta

    payload = load_snapshot(args.snapshot)
    spec, count, ts = read_meta(payload)
    print(
        f"resuming {spec.workload} / {spec.policy} from record "
        f"{count} (t={ts:,.1f} s)",
        file=sys.stderr,
    )
    session = SnapshotSession(spec)
    replay = session.resume(payload)
    _print_replay_report(
        f"{session.workload.name} ({session.workload.io_count} I/Os)",
        replay,
    )
    if session.auditor is not None:
        print(
            f"audit:           {session.auditor.checks_run} invariant "
            "checks, 0 violations"
        )
    return 0


def _cmd_crash_test(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.persistence import RunSpec, run_crash_sweep

    status = 0
    reports = []
    for policy in args.policies:
        # A timeline, so kill/resume identity covers the sample slot
        # and the timeline points too.
        spec = RunSpec(
            workload=args.workload,
            policy=policy,
            full=args.full,
            audit=True,
            timeline_interval=300.0,
        )
        report = run_crash_sweep(
            spec,
            snapshot_every=args.snapshot_every,
            trials=args.trials,
            seed=args.seed,
        )
        print(report.render())
        print()
        reports.append(report)
        if not report.ok:
            status = 1
    if args.report is not None:
        document = "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
        Path(args.report).write_text(document, encoding="utf-8")
        print(f"wrote recovery report to {args.report}", file=sys.stderr)
    return status


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    if args.tiers:
        from repro.faults.chaos import run_tier_frontier

        frontier = run_tier_frontier(
            workload=args.workload,
            full=args.full,
            progress=_progress,
        )
        print(frontier.render())
        return 0 if frontier.ok else 1
    report = run_chaos(
        workload=args.workload,
        full=args.full,
        seeds=tuple(args.seeds),
        policies=args.policies,
        kinds=args.faults,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=_progress,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.devtools.analysis.cli import run

    return run(args)


def _cmd_patterns(args: argparse.Namespace) -> int:
    from repro.experiments.fig06_patterns import measure_pattern_mix

    workload = build_workload(args.workload, args.full)
    mix = measure_pattern_mix(workload)
    print(f"{workload.name}: {workload.io_count} I/Os, {len(workload.items)} items")
    for pattern, fraction in mix.items():
        print(f"  {pattern.value}: {fraction * 100:5.1f} %")
    return 0


def _cmd_ssd_study(args: argparse.Namespace) -> int:
    from repro.experiments import ssd_study

    print(ssd_study.run(full=args.full))
    return 0


def _cmd_scaling_study(args: argparse.Namespace) -> int:
    from repro.experiments import scaling

    _apply_engine_options(args)
    print(scaling.run())
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.trace.writer import write_logical_trace

    workload = build_workload(args.workload, args.full)
    count = write_logical_trace(workload.records, args.path)
    print(f"wrote {count} records of {workload.name!r} to {args.path}")
    return 0


def _load_trace_workload(
    args: argparse.Namespace, enclosure_count: int
) -> "Workload":
    """Pick the right trace loader: ``.ecot``, MSR, or logical CSV."""
    from repro.workloads.from_trace import (
        workload_from_csv,
        workload_from_ecot,
        workload_from_msr,
    )

    if getattr(args, "ecot", False) or str(args.path).endswith(".ecot"):
        return workload_from_ecot(args.path, enclosure_count)
    if args.msr:
        return workload_from_msr(args.path, enclosure_count)
    return workload_from_csv(args.path, enclosure_count)


def _cmd_replay_trace(args: argparse.Namespace) -> int:
    workload = _load_trace_workload(args, args.enclosures)
    print(f"loaded: {workload.description}")
    policy = STANDARD_POLICIES[args.policy]()
    result = run_cell(workload, policy)
    print(f"enclosure power: {watts(result.enclosure_watts)}")
    print(f"mean response:   {seconds(result.mean_response)}")
    print(f"migrated:        {gigabytes(result.migrated_bytes)}")
    print(f"determinations:  {result.determinations}")
    return 0


def _cmd_intervals(args: argparse.Namespace) -> int:
    from repro.analysis.plot import curves_overlay_summary, step_curve
    from repro.experiments.testbed import comparison

    results = comparison(args.workload, args.full)
    curves = {name: r.interval_curve for name, r in results.items()}
    print(
        step_curve(
            curves[args.policy],
            title=(
                f"{args.workload} / {args.policy} — cumulative I/O "
                "intervals above break-even"
            ),
        )
    )
    print()
    print(curves_overlay_summary(curves))
    return 0


def _cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.config import DEFAULT_CONFIG
    from repro.core.patterns import build_profiles, pattern_fractions
    from repro.trace.stats import summarize

    workload = _load_trace_workload(args, enclosure_count=1)
    summary = summarize(workload.records)
    print(f"records:      {summary.record_count}")
    print(f"items:        {summary.item_count}")
    print(f"duration:     {summary.duration:,.1f} s")
    print(f"read ratio:   {summary.read_ratio:.2f}")
    print(f"mean IOPS:    {summary.mean_iops:.3f}")
    print(f"total bytes:  {summary.total_bytes / units.GB:.2f} GB")
    sizes = {item.item_id: item.size_bytes for item in workload.items}
    locations = {item.item_id: "e0" for item in workload.items}
    mix = pattern_fractions(
        build_profiles(
            workload.records,
            0.0,
            workload.duration,
            DEFAULT_CONFIG.break_even_time,
            sizes,
            locations,
        )
    )
    print("pattern mix (whole-trace window, break-even "
          f"{DEFAULT_CONFIG.break_even_time:g} s):")
    for pattern, fraction in mix.items():
        print(f"  {pattern.value}: {fraction * 100:5.1f} %")
    return 0


def _cmd_trace_pack(args: argparse.Namespace) -> int:
    from repro.trace.columnar import ColumnarTrace
    from repro.trace.reader import read_logical_trace, read_msr_trace

    reader = read_msr_trace if args.msr else read_logical_trace
    trace = ColumnarTrace.from_records(reader(args.input))
    count = trace.save(args.output)
    print(
        f"packed {count} records over {len(trace.items)} items "
        f"into {args.output}"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.errors import UsageError
    from repro.trace.columnar import ECOT_VERSION, FLAG_READ, ColumnarTrace

    if args.shards is not None and args.shards <= 0:
        raise UsageError(
            f"--shards must be a positive array count, got {args.shards}"
        )
    trace = ColumnarTrace.load(args.path)
    reads = sum(1 for flag in trace.flags if flag & FLAG_READ)
    count = len(trace)
    print(f"format:    .ecot version {ECOT_VERSION}")
    print(f"records:   {count}")
    print(f"items:     {len(trace.items)}")
    if count:
        span = max(trace.timestamps) - min(trace.timestamps)
        print(f"span:      {span:,.1f} s")
        print(f"reads:     {reads} ({reads / count:.0%})")
    if args.shards is not None:
        from repro.fleet.routing import HashRouter, array_name

        router = HashRouter(args.shards, args.router_seed)
        owners = [router.shard_for(item_id) for item_id in trace.items]
        item_counts = [0] * args.shards
        record_counts = [0] * args.shards
        for owner in owners:
            item_counts[owner] += 1
        for index in trace.item_index:
            record_counts[owners[index]] += 1
        width = max(record_counts) if count else 0
        print(f"shards:    {args.shards} (router seed {args.router_seed})")
        for shard in range(args.shards):
            bar = "#" * (
                round(40 * record_counts[shard] / width) if width else 0
            )
            print(
                f"  {array_name(shard)}: {record_counts[shard]:>8} records "
                f"{item_counts[shard]:>6} items  {bar}"
            )
    return 0


def _render_fleet(data: dict) -> str:
    """Text table for a fleet report dict (:meth:`FleetResult.to_dict`)."""
    lines = [
        f"fleet — {data['workload']} / {data['policy']}, "
        f"{data['n_arrays']} arrays, router seed {data['router_seed']}",
        "",
        f"{'array':<10} {'I/Os':>8} {'encl W':>8} {'resp ms':>8} "
        f"{'migrated':>10} {'spin-ups':>8} {'denied':>6} {'unavail':>8}",
    ]
    for row in data["arrays"]:
        lines.append(
            f"{row['array']:<10} {row['io_count']:>8} "
            f"{row['enclosure_watts']:>8.0f} "
            f"{row['mean_response'] * 1e3:>8.1f} "
            f"{gigabytes(row['migrated_bytes']):>10} "
            f"{row['spin_up_count']:>8} {row['denied_ios']:>6} "
            f"{row['unavailability_seconds']:>7.0f}s"
        )
    lines += [
        "",
        f"fleet totals: {data['io_count']} I/Os, "
        f"{watts(data['enclosure_watts'])} enclosures + "
        f"{watts(data['controller_watts'])} controllers, "
        f"mean response {seconds(data['mean_response'])}",
        f"energy books: {data['enclosure_joules']:,.0f} J enclosures, "
        f"{data['controller_joules']:,.0f} J controllers "
        f"(exact per-array sums, audited)",
        f"migrations:   {gigabytes(data['migrated_bytes'])} in "
        f"{data['migration_count']} moves, "
        f"{data['determinations']} determinations",
    ]
    if data["actions_by_kind"]:
        kinds = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(data["actions_by_kind"].items())
        )
        lines.append(f"actions:      {kinds}")
    if data["denied_ios"] or data["unavailability_seconds"]:
        lines.append(
            f"availability: {data['denied_ios']} denied, "
            f"{data['delayed_ios']} delayed, "
            f"{data['unavailability_seconds']:,.0f} s unavailable, "
            f"{data['outage_violations']} outage violations"
        )
    return "\n".join(lines)


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.parallel import (
        ExperimentEngine,
        PolicySpec,
        WorkloadSpec,
    )
    from repro.fleet import FleetRunner, array_outage_plans

    runner = FleetRunner(args.arrays, router_seed=args.router_seed)
    plans = None
    if args.outage_arrays:
        workload = build_workload(args.workload, args.full)
        plans = array_outage_plans(
            workload, runner.router(), args.outage_arrays, seed=args.chaos_seed
        )
    engine = ExperimentEngine(
        jobs=args.jobs, cache_dir=args.cache_dir, progress=_progress
    )
    fleet = runner.run(
        WorkloadSpec(name=args.workload, full=args.full),
        PolicySpec(name=args.policy),
        audit=args.audit,
        faults=plans,
        engine=engine,
    )
    print(_render_fleet(fleet.to_dict()))
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(fleet.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote fleet report to {args.out}", file=sys.stderr)
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    data = json.loads(Path(args.path).read_text(encoding="utf-8"))
    print(_render_fleet(data))
    return 0


def _cmd_replication(args: argparse.Namespace) -> int:
    from repro.experiments import replication

    print(replication.run(tuple(args.seeds)))
    return 0


def _cmd_power_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.plot import time_series_chart
    from repro.config import DEFAULT_CONFIG
    from repro.monitoring.timeline import PowerTimeline
    from repro.simulation import build_context
    from repro.trace.replay import TraceReplayer

    workload = build_workload(args.workload, args.full)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    workload.install(context)
    timeline = PowerTimeline(
        context.enclosures, interval_seconds=args.interval
    )
    policy = STANDARD_POLICIES[args.policy]()
    TraceReplayer(context, policy, timeline).run(
        workload.columnar(), duration=workload.duration
    )
    print(
        time_series_chart(
            timeline.total_series(),
            title=f"{args.workload} / {args.policy} — enclosure power",
        )
    )
    print(f"\nmean: {timeline.mean_watts():,.0f} W")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``ecostor`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="ecostor",
        description=(
            "Energy-efficient storage management (ICDE 2012 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments",
        help="parallel cached (workload x policy) sweep",
    )
    experiments.add_argument(
        "--workloads",
        nargs="+",
        choices=WORKLOAD_NAMES,
        help="workloads to sweep (default: all three)",
    )
    experiments.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(STANDARD_POLICIES),
        help="policies to sweep (default: all four)",
    )
    experiments.add_argument("--full", action="store_true")
    _add_engine_options(experiments)
    experiments.add_argument(
        "--verify-serial",
        action="store_true",
        help="re-run the sweep serially and assert identical results",
    )
    experiments.set_defaults(func=_cmd_experiments)

    figures = sub.add_parser("figures", help="regenerate paper tables/figures")
    figures.add_argument("--full", action="store_true", help="paper-length runs")
    figures.add_argument(
        "--only",
        nargs="+",
        choices=_FIGURE_SECTIONS,
        help="subset of figure groups",
    )
    _add_engine_options(figures)
    figures.set_defaults(func=_cmd_figures)

    abl = sub.add_parser("ablations", help="run the mechanism ablations")
    abl.add_argument("--full", action="store_true")
    _add_engine_options(abl)
    abl.set_defaults(func=_cmd_ablations)

    run = sub.add_parser("run", help="replay one workload under one policy")
    run.add_argument("workload", choices=WORKLOAD_NAMES)
    run.add_argument("policy", choices=sorted(STANDARD_POLICIES))
    run.add_argument("--full", action="store_true")
    run.add_argument(
        "--audit",
        action="store_true",
        help="verify energy/capacity/time invariants every monitoring period",
    )
    run.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="write a crash-safe .ecsn snapshot every N records "
        "(requires --snapshot-dir)",
    )
    run.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="directory for .ecsn snapshot files",
    )
    run.set_defaults(func=_cmd_run)

    tiers = sub.add_parser(
        "tiers",
        help="multi-tier lifecycle replay with per-tier books "
        "(docs/tiers.md)",
    )
    tiers.add_argument("workload", choices=WORKLOAD_NAMES)
    tiers.add_argument("--full", action="store_true")
    tiers.add_argument(
        "--flash", type=int, default=1, metavar="N",
        help="flash-tier device count (default: 1; 0 disables the tier)",
    )
    tiers.add_argument(
        "--archive", type=int, default=1, metavar="N",
        help="archive-tier device count (default: 1; 0 disables the tier)",
    )
    tiers.add_argument(
        "--replicate-hot",
        action="store_true",
        help="keep an HDD replica of the hottest flash-resident item",
    )
    tiers.add_argument(
        "--audit",
        action="store_true",
        help="arm the invariant auditor (incl. per-tier conservation)",
    )
    tiers.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the per-tier report as JSON here",
    )
    tiers.set_defaults(func=_cmd_tiers)

    resume = sub.add_parser(
        "resume",
        help="resume a crashed run from a .ecsn snapshot (bit-identical)",
    )
    resume.add_argument("snapshot", help="path to a snap-*.ecsn file")
    resume.set_defaults(func=_cmd_resume)

    crash_test = sub.add_parser(
        "crash-test",
        help="seeded kill/resume sweep proving snapshot resume bit-identity",
    )
    crash_test.add_argument(
        "--workload", choices=WORKLOAD_NAMES, default="fileserver"
    )
    crash_test.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(ALL_POLICIES),
        default=sorted(ALL_POLICIES),
        help="policies to drill (default: all five)",
    )
    crash_test.add_argument("--full", action="store_true")
    crash_test.add_argument(
        "--snapshot-every", type=int, default=2000, metavar="N"
    )
    crash_test.add_argument(
        "--trials", type=int, default=2, help="kill points per policy"
    )
    crash_test.add_argument("--seed", type=int, default=11)
    crash_test.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON recovery report here (CI artifact)",
    )
    crash_test.set_defaults(func=_cmd_crash_test)

    chaos = sub.add_parser(
        "chaos",
        help="policies x fault plans sweep with the invariant auditor armed",
    )
    chaos.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default="tpcc",
        help="workload to replay under faults (default: tpcc)",
    )
    chaos.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11],
        help="chaos seeds; each derives one full fault-plan grid",
    )
    chaos.add_argument(
        "--faults",
        nargs="+",
        metavar="KIND",
        default=None,
        help="fault-plan kinds to sweep (default: all, incl. baseline)",
    )
    chaos.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(STANDARD_POLICIES),
        default=None,
        help="policies to stress (default: all four)",
    )
    chaos.add_argument("--full", action="store_true")
    chaos.add_argument(
        "--tiers",
        action="store_true",
        help="sweep tier configurations under the lifecycle policy "
        "instead of fault plans: energy vs latency vs capacity cost",
    )
    _add_engine_options(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    check = sub.add_parser(
        "check",
        help="static checks: domain conventions, dimensions, determinism "
        "(repro.devtools.analysis)",
    )
    check.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories"
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--select",
        nargs="+",
        metavar="CHECK",
        help="run only these checks (ids or names)",
    )
    check.add_argument(
        "--baseline",
        metavar="FILE",
        help="grandfathered findings (default: analysis-baseline.json "
        "when present)",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    check.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    check.add_argument(
        "--list-checks", action="store_true", help="print the check catalogue"
    )
    check.set_defaults(func=_cmd_check)

    patterns = sub.add_parser("patterns", help="classify a workload (Fig 6)")
    patterns.add_argument("workload", choices=WORKLOAD_NAMES)
    patterns.add_argument("--full", action="store_true")
    patterns.set_defaults(func=_cmd_patterns)

    ssd = sub.add_parser("ssd-study", help="HDD vs flash study (§VIII-D)")
    ssd.add_argument("--full", action="store_true")
    ssd.set_defaults(func=_cmd_ssd_study)

    scaling = sub.add_parser(
        "scaling-study", help="array-size sweep (§IX future work)"
    )
    _add_engine_options(scaling)
    scaling.set_defaults(func=_cmd_scaling_study)

    export = sub.add_parser(
        "export-trace", help="write a workload's logical trace to CSV"
    )
    export.add_argument("workload", choices=WORKLOAD_NAMES)
    export.add_argument("path")
    export.add_argument("--full", action="store_true")
    export.set_defaults(func=_cmd_export_trace)

    replay = sub.add_parser(
        "replay-trace", help="replay a recorded trace under a policy"
    )
    replay.add_argument("path")
    replay.add_argument("policy", choices=sorted(STANDARD_POLICIES))
    replay.add_argument("--enclosures", type=int, default=12)
    replay.add_argument(
        "--msr", action="store_true", help="input is MSR-Cambridge format"
    )
    replay.add_argument(
        "--ecot",
        action="store_true",
        help="input is a packed .ecot trace (auto-detected by suffix)",
    )
    replay.set_defaults(func=_cmd_replay_trace)

    trace = sub.add_parser(
        "trace", help="columnar .ecot trace utilities (pack / info)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    pack = trace_sub.add_parser(
        "pack", help="convert a CSV or MSR trace into a packed .ecot file"
    )
    pack.add_argument("input", help="source trace (logical CSV, or MSR)")
    pack.add_argument("output", help="destination .ecot path")
    pack.add_argument(
        "--msr", action="store_true", help="input is MSR-Cambridge format"
    )
    pack.set_defaults(func=_cmd_trace_pack)
    info = trace_sub.add_parser(
        "info", help="print the header and summary of a packed .ecot file"
    )
    info.add_argument("path")
    info.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="also print the per-array record/item histogram an N-array "
        "fleet router would produce (N must be positive)",
    )
    info.add_argument(
        "--router-seed",
        type=int,
        default=0,
        help="router seed for the --shards histogram",
    )
    info.set_defaults(func=_cmd_trace_info)

    fleet = sub.add_parser(
        "fleet", help="multi-array fleet runs (repro.fleet)"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run",
        help="shard one workload across N arrays, merge + audit the books",
    )
    fleet_run.add_argument("workload", choices=WORKLOAD_NAMES)
    fleet_run.add_argument("policy", choices=sorted(STANDARD_POLICIES))
    fleet_run.add_argument(
        "--arrays", type=int, default=3, metavar="N",
        help="fleet width (default: 3)",
    )
    fleet_run.add_argument(
        "--router-seed", type=int, default=0,
        help="seed of the deterministic item->array router",
    )
    fleet_run.add_argument("--full", action="store_true")
    fleet_run.add_argument(
        "--audit",
        action="store_true",
        help="arm the per-array invariant auditor (the global "
        "conservation audit always runs)",
    )
    fleet_run.add_argument(
        "--outage-arrays",
        type=int,
        nargs="+",
        default=None,
        metavar="K",
        help="inject a deterministic whole-array outage plan into "
        "these array indexes",
    )
    fleet_run.add_argument(
        "--chaos-seed", type=int, default=11,
        help="seed for --outage-arrays fault plans",
    )
    fleet_run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the fleet report as JSON here",
    )
    _add_engine_options(fleet_run)
    fleet_run.set_defaults(func=_cmd_fleet_run)
    fleet_report = fleet_sub.add_parser(
        "report", help="render a saved fleet report JSON as text"
    )
    fleet_report.add_argument("path")
    fleet_report.set_defaults(func=_cmd_fleet_report)

    intervals = sub.add_parser(
        "intervals", help="draw a Fig 17-19 interval curve"
    )
    intervals.add_argument("workload", choices=WORKLOAD_NAMES)
    intervals.add_argument("policy", choices=sorted(STANDARD_POLICIES))
    intervals.add_argument("--full", action="store_true")
    intervals.set_defaults(func=_cmd_intervals)

    timeline = sub.add_parser(
        "power-timeline", help="power-over-time chart (§III-B samples)"
    )
    timeline.add_argument("workload", choices=WORKLOAD_NAMES)
    timeline.add_argument("policy", choices=sorted(STANDARD_POLICIES))
    timeline.add_argument("--full", action="store_true")
    timeline.add_argument("--interval", type=float, default=120.0)
    timeline.set_defaults(func=_cmd_power_timeline)

    analyze = sub.add_parser(
        "analyze-trace", help="summarize + classify a recorded trace"
    )
    analyze.add_argument("path")
    analyze.add_argument("--msr", action="store_true")
    analyze.add_argument(
        "--ecot",
        action="store_true",
        help="input is a packed .ecot trace (auto-detected by suffix)",
    )
    analyze.set_defaults(func=_cmd_analyze_trace)

    replication = sub.add_parser(
        "replication", help="seed-replication robustness study"
    )
    replication.add_argument(
        "--seeds", type=int, nargs="+", default=[11, 23, 47]
    )
    replication.set_defaults(func=_cmd_replication)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``ecostor`` command line interface.

    Domain errors — bad traces, invalid arguments, misuse of the
    simulation API, invariant-audit failures, unusable snapshots,
    unsatisfiable placements (``PlacementError``, incl. its
    ``HotSetTooSmall`` subclass) — exit with status 2 and a one-line
    diagnostic on stderr instead of a traceback.  Genuine bugs
    (anything else) still propagate loudly.
    """
    from repro.errors import (
        AuditError,
        PlacementError,
        SnapshotError,
        TraceError,
        UsageError,
        ValidationError,
    )

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        AuditError,
        PlacementError,
        SnapshotError,
        TraceError,
        UsageError,
        ValidationError,
    ) as exc:
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"ecostor: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
