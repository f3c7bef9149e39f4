"""Experiment harness: one module per paper table/figure group.

:mod:`repro.experiments.parallel` is the execution substrate: every
comparison, ablation, and sweep routes its (workload × policy × config)
cells through an :class:`~repro.experiments.parallel.ExperimentEngine`,
which can fan them out across worker processes and memoize finished
cells in an on-disk content-addressed cache.
"""

from repro.experiments.parallel import (
    CellOutcome,
    ExperimentCell,
    ExperimentEngine,
    PolicySpec,
    WorkloadSpec,
    configure,
    default_engine,
    workload_fingerprint,
)
from repro.experiments.runner import (
    ALL_POLICIES,
    ExperimentResult,
    STANDARD_POLICIES,
    TIERED_POLICIES,
    run_cell,
    run_on_context,
)
from repro.experiments.serialize import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.experiments.testbed import build_workload, comparison

__all__ = [
    "ALL_POLICIES",
    "CellOutcome",
    "ExperimentCell",
    "ExperimentEngine",
    "ExperimentResult",
    "PolicySpec",
    "STANDARD_POLICIES",
    "TIERED_POLICIES",
    "WorkloadSpec",
    "build_workload",
    "comparison",
    "configure",
    "default_engine",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
    "run_cell",
    "run_on_context",
    "workload_fingerprint",
]
