"""Build a :class:`Workload` from a recorded logical I/O trace.

The paper's File Server evaluation replays real MSR-Cambridge traces
through btreplay; this module is the equivalent ingestion path for this
codebase: feed it a logical CSV trace (or an MSR-format block trace via
:func:`repro.trace.reader.read_msr_trace`) and it infers the data-item
catalog, sizes each item from the highest offset touched, and
distributes the items across enclosures so the trace can be replayed
under any policy.

Placement mirrors Table I's "assign each volume in MSR trace to volumes
in alphabetical order of the volume names": items are sorted by id and
dealt round-robin across the enclosures.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from repro import units
from repro.errors import WorkloadError
from repro.trace.columnar import ColumnarTrace
from repro.trace.reader import read_logical_trace, read_msr_trace
from repro.trace.records import LogicalIORecord
from repro.workloads.items import DataItemSpec, Workload

#: Items are sized up to the next multiple of this, with one slack unit,
#: so replays never touch past the inferred end of an item.
SIZE_QUANTUM = 16 * units.MB


def infer_item_sizes(
    records: Sequence[LogicalIORecord],
) -> dict[str, int]:
    """Size every data item from the highest byte its trace touches.

    A :class:`ColumnarTrace` is read column-wise; its item table must
    name each item once, as :meth:`ColumnarTrace.from_records` and
    :meth:`ColumnarTrace.take` build it.
    """
    trace = (
        records
        if isinstance(records, ColumnarTrace)
        else ColumnarTrace.from_records(records)
    )
    # offset + size stays below 2**64 for non-negative int64 columns.
    ends = np.frombuffer(trace.offsets, dtype=np.int64).astype(
        np.uint64
    ) + np.frombuffer(trace.sizes, dtype=np.int64).astype(np.uint64)
    highest = np.zeros(len(trace.items), dtype=np.uint64)
    np.maximum.at(highest, np.frombuffer(trace.item_index, dtype=np.uint32), ends)
    return {
        item: ((top // SIZE_QUANTUM) + 1) * SIZE_QUANTUM
        for item, top in zip(trace.items, highest.tolist())
    }


def workload_from_trace(
    trace: ColumnarTrace,
    enclosure_count: int,
    name: str = "trace-replay",
    duration: float | None = None,
) -> Workload:
    """Wrap a recorded logical trace as a replayable workload.

    The records are put in time order by a stable sort of the
    timestamps column (records compare by timestamp only, so this is
    the order ``sorted(records)`` gives), and the catalog is inferred
    from the sorted columns.

    ``duration`` defaults to the last record's timestamp plus a small
    tail.  The tail must stay *below* the break-even time: a longer one
    would append an artificial Long Interval to every item that was
    active at the end of the recording and skew the P3/P1 split.
    """
    if not len(trace):
        raise WorkloadError("trace contains no records")
    if enclosure_count <= 0:
        raise WorkloadError("enclosure_count must be positive")
    ordered = trace.take(
        np.argsort(np.frombuffer(trace.timestamps, dtype=np.float64), kind="stable")
    )
    sizes = infer_item_sizes(ordered)
    items = [
        DataItemSpec(
            item_id=item,
            size_bytes=sizes[item],
            enclosure_index=index % enclosure_count,
            kind="traced",
        )
        for index, item in enumerate(sorted(sizes))
    ]
    end = ordered.timestamps[-1] + 1.0
    return Workload(
        name=name,
        duration=duration if duration is not None else end,
        enclosure_count=enclosure_count,
        items=items,
        records=ordered,
        description=(
            f"replay of {len(ordered)} recorded I/Os over "
            f"{len(items)} inferred data items"
        ),
    )


def workload_from_records(
    records: Sequence[LogicalIORecord],
    enclosure_count: int,
    name: str = "trace-replay",
    duration: float | None = None,
) -> Workload:
    """Pack a recorded logical trace once and wrap it as a workload
    (see :func:`workload_from_trace`)."""
    return workload_from_trace(
        ColumnarTrace.from_records(records),
        enclosure_count,
        name=name,
        duration=duration,
    )


def workload_from_csv(
    source: str | Path | TextIO,
    enclosure_count: int,
    name: str = "trace-replay",
) -> Workload:
    """Load a logical CSV trace (repro's own format) as a workload."""
    return workload_from_records(
        read_logical_trace(source), enclosure_count, name=name
    )


def workload_from_msr(
    source: str | Path | TextIO,
    enclosure_count: int,
    name: str = "msr-replay",
) -> Workload:
    """Load an MSR-Cambridge block trace as a workload.

    Each ``hostname.disknum`` stream becomes one data item, matching the
    paper's volume-granular File Server items.
    """
    return workload_from_records(
        read_msr_trace(source), enclosure_count, name=name
    )


def workload_from_ecot(
    source: str | Path,
    enclosure_count: int,
    name: str = "ecot-replay",
) -> Workload:
    """Load a packed ``.ecot`` columnar trace as a workload.

    The loader refuses a malformed file with a
    :class:`~repro.errors.TraceError`; the columns then go through the
    same time sort and catalog inference as every other trace source,
    without a record object per I/O.
    """
    return workload_from_trace(
        ColumnarTrace.load(source), enclosure_count, name=name
    )
