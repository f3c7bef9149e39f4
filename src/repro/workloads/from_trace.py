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

from collections import defaultdict
from pathlib import Path
from typing import Sequence, TextIO

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
    """Size every data item from the highest byte its trace touches."""
    highest: defaultdict[str, int] = defaultdict(int)
    for record in records:
        end = record.offset + record.size
        if end > highest[record.item_id]:
            highest[record.item_id] = end
    return {
        item: ((top // SIZE_QUANTUM) + 1) * SIZE_QUANTUM
        for item, top in highest.items()
    }


def workload_from_records(
    records: Sequence[LogicalIORecord],
    enclosure_count: int,
    name: str = "trace-replay",
    duration: float | None = None,
) -> Workload:
    """Wrap a recorded logical trace as a replayable workload.

    ``duration`` defaults to the last record's timestamp plus a small
    tail.  The tail must stay *below* the break-even time: a longer one
    would append an artificial Long Interval to every item that was
    active at the end of the recording and skew the P3/P1 split.
    """
    if not records:
        raise WorkloadError("trace contains no records")
    if enclosure_count <= 0:
        raise WorkloadError("enclosure_count must be positive")
    ordered = sorted(records)
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
    end = ordered[-1].timestamp + 1.0
    return Workload(
        name=name,
        duration=duration if duration is not None else end,
        enclosure_count=enclosure_count,
        items=items,
        records=ColumnarTrace.from_records(ordered),
        description=(
            f"replay of {len(ordered)} recorded I/Os over "
            f"{len(items)} inferred data items"
        ),
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
    :class:`~repro.errors.TraceError`.  The columns are then
    materialized into record objects once, so the same time sort and
    catalog inference as every other trace source run, and the sorted
    records are packed back into the workload's columns: the replay
    and the cache fingerprint read those.
    """
    trace = ColumnarTrace.load(source)
    return workload_from_records(
        trace.to_records(), enclosure_count, name=name
    )
