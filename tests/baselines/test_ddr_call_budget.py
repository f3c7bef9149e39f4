"""Call budget of DDR's policy, monitoring and fault layers on a faulted replay.

cProfile counts calls exactly, so a replay of one deterministic trace
makes the same calls into :mod:`repro.baselines`,
:mod:`repro.monitoring` and :mod:`repro.faults` on every run.  DDR
judges every enclosure every quarter second (§VII-A.1), so on the TPC-C
smoke trace with the ``storm`` fault plan its checkpoints outnumber the
records: a budget on these counts catches added per-checkpoint or
per-enclosure frames in the policy or in the storage monitor it reads,
without the noise of a wall-clock gate.  The fault clock's budget
catches outage questions asked per I/O again on enclosures that have no
outage window (the storm plan gives one enclosure of ten a window), by
the enclosure or by the controller's emergency write buffer.

Only named functions whose code lives under the package counts.
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

import repro.baselines
import repro.faults
import repro.monitoring
from repro.baselines.ddr import DDRPolicy
from repro.config import DEFAULT_CONFIG
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer

PACKAGES = {
    "repro.baselines": os.path.dirname(repro.baselines.__file__) + os.sep,
    "repro.monitoring": os.path.dirname(repro.monitoring.__file__) + os.sep,
    "repro.faults": os.path.dirname(repro.faults.__file__) + os.sep,
}

#: Most calls into each package one faulted smoke replay under DDR may make.
BUDGETS = {
    "repro.baselines": 37_362,
    "repro.monitoring": 33_145,
    "repro.faults": 7_403,
}


def package_calls() -> tuple[dict[str, int], int]:
    """``({package: calls}, trace records)`` of one replay."""
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
    calls = {
        package: sum(
            primitive
            for (filename, _, name), (primitive, *_) in stats.items()
            if filename.startswith(directory) and not name.startswith("<")
        )
        for package, directory in PACKAGES.items()
    }
    return calls, len(records)


@pytest.fixture(scope="module")
def measured() -> tuple[dict[str, int], int]:
    return package_calls()


@pytest.mark.parametrize("package", list(BUDGETS))
def test_package_calls_within_budget(measured, package: str):
    calls, records = measured
    summary = (
        f"ddr+storm: {calls[package]} calls into {package} "
        f"({calls[package] / records:.4f} per record), "
        f"budget {BUDGETS[package]}"
    )
    print(summary)
    assert calls[package] <= BUDGETS[package], summary


def test_package_calls_repeat_exactly(measured):
    assert package_calls() == measured
