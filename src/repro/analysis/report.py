"""Plain-text report rendering for the experiment harness.

Every benchmark prints the same row format: the paper's reported value
next to the measured one, so EXPERIMENTS.md and the bench logs read the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - layering: annotation only
    from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class PaperRow:
    """One paper-vs-measured comparison line."""

    label: str
    paper: str
    measured: str
    note: str = ""


def render_table(title: str, rows: Sequence[PaperRow]) -> str:
    """Render comparison rows as a fixed-width text table."""
    label_w = max([len(r.label) for r in rows] + [len("metric")])
    paper_w = max([len(r.paper) for r in rows] + [len("paper")])
    meas_w = max([len(r.measured) for r in rows] + [len("measured")])
    lines = [
        title,
        f"{'metric':<{label_w}}  {'paper':>{paper_w}}  {'measured':>{meas_w}}  note",
        "-" * (label_w + paper_w + meas_w + 12),
    ]
    for row in rows:
        lines.append(
            f"{row.label:<{label_w}}  {row.paper:>{paper_w}}  "
            f"{row.measured:>{meas_w}}  {row.note}"
        )
    return "\n".join(lines)


def experiment_rows(
    results: Mapping[str, "ExperimentResult"],
) -> list[PaperRow]:
    """Measured-only summary rows for a policy → result mapping.

    Consumes :class:`~repro.experiments.runner.ExperimentResult` values
    regardless of provenance — run inline, in a worker, or
    reconstructed from the parallel engine's JSON cache — since the
    serialized form round-trips losslessly.
    """
    rows = []
    for policy, result in results.items():
        rows.append(
            PaperRow(
                label=f"{result.workload_name} {policy}",
                paper="-",
                measured=watts(result.enclosure_watts),
                note=(
                    f"response {seconds(result.mean_response)}, "
                    f"migrated {gigabytes(result.migrated_bytes)}, "
                    f"{result.determinations} determinations"
                ),
            )
        )
    return rows


def render_experiment_table(
    title: str, results: Mapping[str, "ExperimentResult"]
) -> str:
    """Render one workload's policy results as a text table."""
    return render_table(title, experiment_rows(results))


def watts(value: float) -> str:
    """Format a power value for report tables, e.g. ``'270.0 W'``."""
    return f"{value:.1f} W"


def percent(value: float) -> str:
    """Format a percentage for report tables, e.g. ``'12.5 %'``."""
    return f"{value:.1f} %"


def seconds(value: float) -> str:
    """Format a duration, using milliseconds below one second."""
    if value < 1.0:
        return f"{value * 1000:.1f} ms"
    return f"{value:.2f} s"


def gigabytes(value_bytes: float) -> str:
    """Format a byte count in gigabytes, e.g. ``'23.10 GB'``."""
    return f"{value_bytes / units.GB:.2f} GB"
