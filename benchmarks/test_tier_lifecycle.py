"""Tier-lifecycle throughput: the FLASH/HDD/ARCHIVE replay stays runnable.

Not a paper figure: ``ecostor bench`` ships a ``tier_lifecycle`` row in
``BENCH_engine.json`` — the TPC-C smoke trace replayed under
:class:`~repro.baselines.tiered.TieredLifecyclePolicy` on a testbed
built with one flash and one archive device.  This benchmark records
that row and requires a finished, positive-throughput replay.
"""

from __future__ import annotations

from repro.experiments.bench import run_bench


def test_tier_lifecycle_throughput_recorded(report):
    document = run_bench("tpcc", full=False, repeats=5)
    lifecycle = document["tier_lifecycle"]
    report(
        "Tier-lifecycle replay (tpcc smoke, flash 1 / archive 1)\n"
        f"  best    : {lifecycle['best_seconds']:.4f} s\n"
        f"  records : {lifecycle['records_per_second']:,.0f} records/s"
    )
    assert lifecycle["records_per_second"] > 0
