"""Call budget of the simulation kernel on the TPC-C smoke replay.

cProfile counts calls exactly, so a replay of one deterministic trace
makes the same calls into :mod:`repro.engine` on every run.  DDR
re-decides placement every quarter second (§VII-A.1), so the TPC-C
replay under ``ddr`` is the checkpoint-heaviest cell, and the storm
fault plan adds fault bookkeeping to every checkpoint.  A budget on
those counts catches added per-record or per-checkpoint kernel work,
such as events allocated and popped per checkpoint, without the noise
of a wall-clock gate.

Only named functions whose code lives under ``repro/engine/`` count.
Comprehension, generator-expression and lambda frames are skipped:
Python 3.12 inlines comprehensions, so their frames exist on some
interpreters and not on others.  The profiler wraps
:meth:`TraceReplayer.run` only, not workload generation or setup.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro.engine
from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer

ENGINE_DIR = os.path.dirname(repro.engine.__file__) + os.sep

#: Most calls into ``repro.engine`` one faulted smoke replay under DDR
#: may make.
BUDGET = 36_218


def engine_calls() -> tuple[int, int]:
    """``(calls into repro.engine, trace records)`` of one replay."""
    workload = build_workload("tpcc", False)
    names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
    faults = build_fault_plan(
        "storm", 0, workload.duration, names, workload.item_ids()
    )
    context = build_context(
        DEFAULT_CONFIG, workload.enclosure_count, faults=faults
    )
    workload.install(context)
    replayer = TraceReplayer(context, DDRPolicy())
    records = workload.columnar()
    profiler = cProfile.Profile()
    profiler.runcall(replayer.run, records, duration=workload.duration)
    stats = pstats.Stats(profiler).stats
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in stats.items()
        if filename.startswith(ENGINE_DIR) and not name.startswith("<")
    )
    return calls, len(records)


def test_engine_calls_within_budget():
    calls, records = engine_calls()
    summary = (
        f"ddr+storm: {calls} calls into repro.engine "
        f"({calls / records:.4f} per record), budget {BUDGET}"
    )
    print(summary)
    assert calls <= BUDGET, summary


def test_engine_calls_repeat_exactly():
    assert engine_calls() == engine_calls()
