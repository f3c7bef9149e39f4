"""Call budget of workload set-up: generating and fingerprinting a trace.

cProfile counts calls exactly, so building one deterministic workload
and hashing it makes the same calls on every run.  Set-up is part of
every ``ecostor run`` and of every worker of a parallel sweep or fleet
run, so a budget on it catches per-record Python work coming back into
generation, packing or the cache key (one record object per I/O, or a
``repr`` feed per record), without the noise of a wall-clock gate.

Only named functions whose code lives under ``repro/workloads/``,
``repro/trace/`` or in ``repro/experiments/parallel.py`` count.
Comprehension, generator-expression and lambda frames are skipped:
Python 3.12 inlines comprehensions, so their frames exist on some
interpreters and not on others.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro.trace
import repro.workloads
from repro.experiments import parallel, testbed
from repro.experiments.parallel import WorkloadSpec, workload_fingerprint
from repro.experiments.testbed import build_workload

COUNTED = (
    os.path.dirname(repro.workloads.__file__) + os.sep,
    os.path.dirname(repro.trace.__file__) + os.sep,
)
PARALLEL_FILE = parallel.__file__

#: Most calls a cold build plus fingerprint of the file-server smoke
#: workload may make into the counted modules.
BUDGET = 1_854


def setup_calls() -> tuple[int, int]:
    """``(counted calls, trace records)`` of one cold set-up."""
    testbed.build_workload.cache_clear()
    workload_fingerprint.cache_clear()

    def setup() -> int:
        # The spec builds through the same cache entry, so the
        # fingerprint hashes this workload instead of building another.
        workload = build_workload("fileserver", False, 0)
        workload_fingerprint(WorkloadSpec("fileserver", full=False))
        return len(workload.records)

    profiler = cProfile.Profile()
    records = profiler.runcall(setup)
    stats = pstats.Stats(profiler).stats
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in stats.items()
        if (filename.startswith(COUNTED) or filename == PARALLEL_FILE)
        and not name.startswith("<")
    )
    return calls, records


def test_setup_calls_within_budget():
    calls, records = setup_calls()
    summary = (
        f"fileserver smoke set-up: {calls} counted calls "
        f"({calls / records:.4f} per record), budget {BUDGET}"
    )
    print(summary)
    assert calls <= BUDGET, summary


def test_setup_calls_repeat_exactly():
    assert setup_calls() == setup_calls()
