"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload oltp-ddr-storm --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every cell was correct,
and 2 (with nothing printed to standard output) when the simulator
sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for result caches and span files (git-ignored).
WORKDIR = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench.harness import RunFailed, run_end_to_end, run_traced
    from perfbench.workloads import WORKLOADS

    bench = WORKLOADS.get(args.workload)
    if bench is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.trace:
            spans = WORKDIR / f"spans-{bench.name}-seed{args.seed}.json"
            report = run_traced(bench, args.seed, args.seconds, WORKDIR, spans_path=spans)
        else:
            report = run_end_to_end(bench, args.seed, args.seconds, WORKDIR)
    except RunFailed as failure:
        report = failure.report

    for line in report.lines:
        print(line)
    width = max((len(name) for name in report.metrics), default=0)
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  failed_frac: {report.failed} / {report.attempted} cells = {report.failed_frac:.4g}")
    for problem in report.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(report.to_json()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
