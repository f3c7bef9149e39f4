"""Call budget of the storage path on two smoke replays.

cProfile counts calls exactly, so a replay of one deterministic trace
makes the same calls into :mod:`repro.storage` on every run.  Every
application I/O crosses the controller, its battery-backed cache and
one enclosure (Fig 5), so these counts scale with the trace: a budget
on them catches added per-I/O or per-page frames on that path without
the noise of a wall-clock gate.  Two replays cover its two shapes:

* the file-server trace under the paper's method (``proposed``), the
  fault-free path with preload and write delay in use;
* the TPC-C trace under ``ddr`` with the ``storm`` fault plan, whose
  every I/O runs the fault bookkeeping and whose I/Os on the one
  enclosure with an outage window also ask the outage questions (the
  retry loop runs only for I/Os a fault refused).

Only named functions whose code lives under ``repro/storage/`` count.
Comprehension, generator-expression and lambda frames are skipped:
Python 3.12 inlines comprehensions, so their frames exist on some
interpreters and not on others.  The profiler wraps
:meth:`TraceReplayer.run` only, not workload generation or setup.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import repro.storage
from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer

STORAGE_DIR = os.path.dirname(repro.storage.__file__) + os.sep

#: Most calls into ``repro.storage`` each smoke replay may make.
BUDGETS = {
    "fileserver-proposed": 128_607,
    "tpcc-ddr-storm": 106_520,
}


def storage_calls(cell: str) -> tuple[int, int]:
    """``(calls into repro.storage, trace records)`` of one replay."""
    if cell == "fileserver-proposed":
        workload = build_workload("fileserver", False)
        context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
        policy = EnergyEfficientPolicy()
    else:
        workload = build_workload("tpcc", False)
        names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
        faults = build_fault_plan(
            "storm", 0, workload.duration, names, workload.item_ids()
        )
        context = build_context(
            DEFAULT_CONFIG, workload.enclosure_count, faults=faults
        )
        policy = DDRPolicy()
    workload.install(context)
    replayer = TraceReplayer(context, policy)
    records = workload.columnar()
    profiler = cProfile.Profile()
    profiler.runcall(replayer.run, records, duration=workload.duration)
    stats = pstats.Stats(profiler).stats
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in stats.items()
        if filename.startswith(STORAGE_DIR) and not name.startswith("<")
    )
    return calls, len(records)


@pytest.mark.parametrize("cell", list(BUDGETS))
def test_storage_calls_within_budget(cell: str):
    calls, records = storage_calls(cell)
    summary = (
        f"{cell}: {calls} calls into repro.storage "
        f"({calls / records:.4f} per record), budget {BUDGETS[cell]}"
    )
    print(summary)
    assert calls <= BUDGETS[cell], summary


@pytest.mark.parametrize("cell", list(BUDGETS))
def test_storage_calls_repeat_exactly(cell: str):
    assert storage_calls(cell) == storage_calls(cell)
