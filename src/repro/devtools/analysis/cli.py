"""``ecostor check``: index the given trees, run the checkers, gate on a baseline.

::

    ecostor check                         # src/repro, committed baseline
    ecostor check src/repro --format json
    ecostor check src/repro --select R9 D201 wall-clock
    ecostor check src/repro --write-baseline
    ecostor check --list-checks

Exit status is 0 when no *new* findings survived the baseline and
suppression filters, 1 when new findings were reported, 2 on usage
errors (unknown check, unreadable path or baseline).  The committed
``analysis-baseline.json`` in the working directory is applied when
present; ``--no-baseline`` ignores it and ``--write-baseline``
regenerates it from the current findings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import ValidationError
from repro.devtools.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    partition_findings,
    write_baseline,
)
from repro.devtools.analysis.framework import (
    CHECKERS,
    AnalysisReport,
    resolve_checkers,
    run_checkers,
)
from repro.devtools.analysis.symbols import index_paths

__all__ = ["analyze_paths", "run"]


def analyze_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    baseline_path: str | Path | None = None,
) -> AnalysisReport:
    """Run the full analysis over ``paths`` and apply the baseline filter.

    ``select`` names check ids or names; a checker that emits several
    checks runs whole, and only the selected checks' findings (plus
    ``E0`` parse errors) are kept.
    """
    checkers = resolve_checkers(list(select) if select else None)
    program = index_paths(paths)
    findings = run_checkers(program, checkers)
    if select:
        wanted = {selector.lower() for selector in select} | {"e0"}
        findings = [
            finding
            for finding in findings
            if finding.check_id.lower() in wanted or finding.check_name in wanted
        ]
    baseline = None
    if baseline_path is not None and Path(baseline_path).exists():
        baseline = load_baseline(baseline_path)
    new, grandfathered = partition_findings(findings, baseline)
    return AnalysisReport(
        findings=tuple(new),
        files_indexed=len(program.files) + len(program.parse_errors),
        baselined=tuple(grandfathered),
    )


def _list_checks() -> str:
    """The check catalogue: one ``id  name  checker`` line per check."""
    lines = []
    for checker in CHECKERS:
        for check_id, name in checker.check_ids.items():
            lines.append(f"{check_id:<5} {name:<24}  {type(checker).__name__}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute ``ecostor check`` from parsed arguments; returns the exit status."""
    if args.list_checks:
        print(_list_checks())
        return 0
    baseline = args.baseline or DEFAULT_BASELINE
    try:
        if args.write_baseline:
            report = analyze_paths(args.paths, select=args.select)
            count = write_baseline([*report.findings, *report.baselined], baseline)
            print(
                f"wrote {count} baseline entr"
                f"{'y' if count == 1 else 'ies'} to {baseline}"
            )
            return 0
        report = analyze_paths(
            args.paths,
            select=args.select,
            baseline_path=None if args.no_baseline else baseline,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_json() if args.format == "json" else report.render_text())
    return 0 if report.clean else 1
