#!/usr/bin/env python3
"""Per-tier books: where the joules and the service time went, by tier.

One testbed builder serves both shapes.  The paper's HDD-only shelf is
``build_context(config, n)``; adding ``flash_count`` / ``archive_count``
puts flash and archive devices next to the HDDs.  The controller keeps
per-device service books on every run, so
:class:`~repro.monitoring.tiers.TierBooks` reports a full row for the
single ``hdd`` tier of the paper's method as well as for the three
tiers of the temperature-driven lifecycle policy.

Run:  python examples/tier_books.py
"""

from repro import DEFAULT_CONFIG, EnergyEfficientPolicy
from repro.baselines.tiered import TieredLifecyclePolicy
from repro.experiments.runner import run_on_context
from repro.experiments.testbed import build_workload
from repro.monitoring.tiers import TierBooks
from repro.simulation import build_context


def show(title, context):
    print(title)
    print(f"  {'tier':<8} {'devices':>7} {'energy kJ':>10} {'I/Os':>7} {'mean ms':>8}")
    for row in TierBooks(context.virtualization, context.controller).report():
        print(
            f"  {row.tier:<8} {len(row.devices):>7} "
            f"{row.energy_joules / 1e3:>10.1f} {row.serviced_ios:>7} "
            f"{row.mean_service_seconds * 1e3:>8.1f}"
        )
    print()


def main() -> None:
    workload = build_workload("fileserver", False)

    hdd_only = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    run_on_context(hdd_only, workload, EnergyEfficientPolicy())
    show("proposed method, HDD-only shelf", hdd_only)

    tiered = build_context(
        DEFAULT_CONFIG, workload.enclosure_count, flash_count=1, archive_count=1
    )
    run_on_context(tiered, workload, TieredLifecyclePolicy())
    show("tiered lifecycle, flash + HDD + archive", tiered)


if __name__ == "__main__":
    main()
