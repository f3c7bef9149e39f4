"""Shared paper-vs-measured row builders for the §VII figures.

Each evaluated workload gets the same three figure kinds (power,
application performance, migrated data) plus the placement-determination
counts from the §VII-D text; this module builds the common rows from a
memoized :func:`repro.experiments.testbed.comparison`.
"""

from __future__ import annotations

from repro.analysis.metrics import power_saving_percent
from repro.analysis.report import PaperRow, gigabytes, percent, seconds, watts
from repro.experiments.paper_values import (
    DETERMINATIONS,
    MIGRATED_BYTES,
    POWER_SAVING_PERCENT,
    POWER_WATTS,
)
from repro.experiments.runner import ExperimentResult

POLICY_ORDER = ("no-power-saving", "proposed", "pdc", "ddr")


def power_rows(
    workload_name: str, results: dict[str, ExperimentResult]
) -> list[PaperRow]:
    """Figs 8/11/14: average disk-enclosure power per policy."""
    baseline = results["no-power-saving"].enclosure_watts
    rows = []
    for policy in POLICY_ORDER:
        result = results[policy]
        note = ""
        if policy != "no-power-saving":
            paper_pct = POWER_SAVING_PERCENT[workload_name][policy]
            measured_pct = power_saving_percent(
                baseline, result.enclosure_watts
            )
            note = f"saving: paper {percent(paper_pct)}, measured {percent(measured_pct)}"
        rows.append(
            PaperRow(
                label=f"{workload_name} power {policy}",
                paper=watts(POWER_WATTS[workload_name][policy]),
                measured=watts(result.enclosure_watts),
                note=note,
            )
        )
    return rows


def migration_rows(
    workload_name: str, results: dict[str, ExperimentResult]
) -> list[PaperRow]:
    """Figs 10/13/16: total migrated data per policy."""
    rows = []
    for policy in ("proposed", "pdc", "ddr"):
        rows.append(
            PaperRow(
                label=f"{workload_name} migrated {policy}",
                paper=gigabytes(MIGRATED_BYTES[workload_name][policy]),
                measured=gigabytes(results[policy].migrated_bytes),
                note="paper value approximate where only a bound is given",
            )
        )
    return rows


def determination_rows(
    workload_name: str, results: dict[str, ExperimentResult]
) -> list[PaperRow]:
    """§VII-D text: number of data-placement determinations."""
    rows = []
    for policy in ("proposed", "pdc", "ddr"):
        rows.append(
            PaperRow(
                label=f"{workload_name} determinations {policy}",
                paper=str(DETERMINATIONS[workload_name][policy]),
                measured=str(results[policy].determinations),
            )
        )
    return rows


def response_rows(
    workload_name: str,
    results: dict[str, ExperimentResult],
    paper_values: dict[str, float] | None = None,
) -> list[PaperRow]:
    """Average I/O response per policy (Fig 9 for the File Server)."""
    rows = []
    for policy in POLICY_ORDER:
        paper = (
            seconds(paper_values[policy])
            if paper_values and policy in paper_values
            else "-"
        )
        rows.append(
            PaperRow(
                label=f"{workload_name} response {policy}",
                paper=paper,
                measured=seconds(results[policy].mean_response),
                note="absolute values are at simulation scale",
            )
        )
    return rows
