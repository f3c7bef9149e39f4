"""Workload catalog for the evaluation (the Fig 5 testbed's three runs).

``build_workload`` returns either the **full** configuration — the
paper's Table I durations — or a **smoke** configuration (shortened) for
tests and quick checks.  The full comparisons are expensive (10^5 I/Os ×
4 policies), so :func:`comparison` memoizes them per process; benchmarks
and report generation share one set of runs.
"""

from __future__ import annotations

from functools import lru_cache

from repro import units
from repro.errors import ValidationError
from repro.config import DEFAULT_CONFIG, EcoStorConfig
from repro.experiments.runner import ExperimentResult
from repro.workloads import (
    build_dss_workload,
    build_fileserver_workload,
    build_oltp_workload,
)
from repro.workloads.items import Workload

WORKLOAD_NAMES = ("fileserver", "tpcc", "tpch")

#: Query subset used by the smoke TPC-H run: covers a single-table scan
#: (Q1/Q6), wide joins (Q9), and the Fig 15 queries (Q2, Q21).
SMOKE_QUERIES = ("Q1", "Q2", "Q6", "Q9", "Q21")


@lru_cache(maxsize=None)
def build_workload(name: str, full: bool = True, seed: int = 0) -> Workload:
    """Build one of the three evaluation workloads.

    ``seed=0`` means "the workload's own default seed" (the shipped
    experiment); other seeds give independent replicates.
    """
    if name == "fileserver":
        kwargs = {} if full else {"duration": units.HOUR}
        return build_fileserver_workload(**kwargs, **_seed(1, seed))
    if name == "tpcc":
        kwargs = {} if full else {"duration": 2400.0}
        return build_oltp_workload(**kwargs, **_seed(2, seed))
    if name == "tpch":
        kwargs = (
            {}
            if full
            else {"duration": 5400.0, "queries": SMOKE_QUERIES}
        )
        return build_dss_workload(**kwargs, **_seed(3, seed))
    raise ValidationError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


def _seed(default: int, seed: int) -> dict[str, int]:
    return {"seed": default if seed == 0 else seed}


@lru_cache(maxsize=None)
def comparison(
    name: str, full: bool = True, config: EcoStorConfig = DEFAULT_CONFIG
) -> dict[str, ExperimentResult]:
    """All four policies over one workload, memoized per process.

    Routed through the parallel experiment engine: with the default
    engine configuration (one job, no cache) the cells replay inline
    and the results are numerically identical to one
    :func:`~repro.experiments.runner.run_cell` per policy; after
    ``repro.experiments.parallel.configure(jobs=..., cache_dir=...)``
    the same call fans out across workers and reuses cached cells.
    """
    from repro.experiments import parallel

    return parallel.comparison_results(name, full=full, config=config)
