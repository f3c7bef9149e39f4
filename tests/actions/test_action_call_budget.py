"""Call budget of the action layer on the TPC-C smoke replay.

cProfile counts calls exactly, so a replay of one deterministic trace
makes the same calls into :mod:`repro.actions` on every run.  A budget
on those counts catches any added per-record or per-apply Python work
in the action layer without the noise of a wall-clock gate.

Only named functions whose code lives under ``repro/actions/`` count.
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

import repro.actions
from repro.config import DEFAULT_CONFIG
from repro.experiments.runner import ALL_POLICIES
from repro.experiments.testbed import build_workload
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer

ACTIONS_DIR = os.path.dirname(repro.actions.__file__) + os.sep

#: Most calls into ``repro.actions`` one smoke replay may make, per
#: policy.  ``ddr`` writes the densest action log on this trace;
#: ``proposed`` is the paper's method.
BUDGETS = {"proposed": 916, "ddr": 5_480}


def action_calls(policy_name: str) -> tuple[int, int]:
    """``(calls into repro.actions, trace records)`` of one replay."""
    workload = build_workload("tpcc", False)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    workload.install(context)
    replayer = TraceReplayer(context, ALL_POLICIES[policy_name]())
    records = workload.columnar()
    profiler = cProfile.Profile()
    profiler.runcall(replayer.run, records, duration=workload.duration)
    stats = pstats.Stats(profiler).stats
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in stats.items()
        if filename.startswith(ACTIONS_DIR) and not name.startswith("<")
    )
    return calls, len(records)


@pytest.mark.parametrize("policy_name", sorted(BUDGETS))
def test_action_calls_within_budget(policy_name):
    calls, records = action_calls(policy_name)
    summary = (
        f"{policy_name}: {calls} calls into repro.actions "
        f"({calls / records:.4f} per record), budget {BUDGETS[policy_name]}"
    )
    print(summary)
    assert calls <= BUDGETS[policy_name], summary


def test_action_calls_repeat_exactly():
    assert action_calls("ddr") == action_calls("ddr")
