"""Call budget of the management function on the file-server smoke replay.

cProfile counts calls exactly, so a replay of one deterministic trace
makes the same calls into :mod:`repro.core` on every run.  A budget on
those counts catches added per-I/O or per-item Python work in Step 1
classification and the planning that follows it, without the noise of
a wall-clock gate.

Only named functions whose code lives under ``repro/core/`` count.
Comprehension, generator-expression and lambda frames are skipped:
Python 3.12 inlines comprehensions, so their frames exist on some
interpreters and not on others.  The profiler wraps
:meth:`TraceReplayer.run` only, not workload generation or setup.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro.core
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments.testbed import build_workload
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer

CORE_DIR = os.path.dirname(repro.core.__file__) + os.sep

#: Most calls into ``repro.core`` one smoke replay under the paper's
#: method may make.
BUDGET = 50_062


def core_calls() -> tuple[int, int]:
    """``(calls into repro.core, trace records)`` of one replay."""
    workload = build_workload("fileserver", False)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    workload.install(context)
    replayer = TraceReplayer(context, EnergyEfficientPolicy())
    records = workload.columnar()
    profiler = cProfile.Profile()
    profiler.runcall(replayer.run, records, duration=workload.duration)
    stats = pstats.Stats(profiler).stats
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in stats.items()
        if filename.startswith(CORE_DIR) and not name.startswith("<")
    )
    return calls, len(records)


def test_core_calls_within_budget():
    calls, records = core_calls()
    summary = (
        f"proposed: {calls} calls into repro.core "
        f"({calls / records:.4f} per record), budget {BUDGET}"
    )
    print(summary)
    assert calls <= BUDGET, summary


def test_core_calls_repeat_exactly():
    assert core_calls() == core_calls()
