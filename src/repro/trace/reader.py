"""Trace readers: parse CSV traces and the MSR-Cambridge trace format.

:func:`read_logical_trace` parses the CSV format produced by
:mod:`repro.trace.writer`.  :func:`read_msr_trace`
parses the SNIA MSR-Cambridge block-trace format the paper's File Server
workload comes from [13]: ``timestamp,hostname,disknum,type,offset,size,
responsetime`` with timestamps in Windows 100-ns ticks; each
``hostname.disknum`` pair becomes one data item, matching the paper's
"a unit of data may be a file" granularity at volume level.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, TextIO

from repro.errors import TraceError
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.writer import LOGICAL_HEADER

#: Windows FILETIME ticks per second (100 ns resolution).
_MSR_TICKS_PER_SECOND = 10_000_000


def read_logical_trace(source: str | Path | TextIO) -> list[LogicalIORecord]:
    """Read a logical CSV trace into a list (validates the header)."""
    return list(iter_logical_trace(source))


def iter_logical_trace(source: str | Path | TextIO) -> Iterator[LogicalIORecord]:
    """Stream logical records from a CSV trace."""
    rows = _rows(source)
    try:
        _, first = next(rows)
    except StopIteration:
        raise TraceError("empty trace file") from None
    if first != LOGICAL_HEADER:
        raise TraceError(f"bad trace header: expected {LOGICAL_HEADER}, got {first}")
    for line_no, row in rows:
        if not row:
            continue
        try:
            yield _parse_logical_row(row)
        except (ValueError, IndexError) as exc:
            raise TraceError(f"trace line {line_no}: {exc}") from exc


def read_msr_trace(
    source: str | Path | TextIO,
    rebase_time: bool = True,
) -> list[LogicalIORecord]:
    """Parse an MSR-Cambridge format block trace into logical records.

    ``rebase_time`` shifts timestamps so the trace starts at 0, which is
    what the replayer expects.  The base is the **minimum** tick of the
    whole trace, not the first row's: MSR captures are frequently
    written in per-disk chunks rather than global time order, and
    rebasing against the first row silently handed every earlier record
    a negative timestamp (which the replayer then rejects — or worse,
    mis-orders once sorted).  Row order is preserved; callers that need
    time order sort afterwards, as :func:`repro.workloads.from_trace.workload_from_records`
    does.
    """
    parsed: list[tuple[int, str, str, IOType, int, int]] = []
    for line_no, row in _rows(source):
        if len(row) < 6:
            raise TraceError(
                f"MSR trace line {line_no}: expected >= 6 fields, got {len(row)}"
            )
        try:
            parsed.append(
                (
                    int(row[0]),
                    row[1],
                    row[2],
                    IOType.parse(row[3]),
                    int(row[4]),
                    int(row[5]),
                )
            )
        except (ValueError, IndexError) as exc:
            raise TraceError(f"MSR trace line {line_no}: {exc}") from exc
    base = 0
    if rebase_time and parsed:
        base = min(ticks for ticks, *_ in parsed)
    return [
        LogicalIORecord(
            timestamp=(ticks - base) / _MSR_TICKS_PER_SECOND,
            item_id=f"{hostname}.{disknum}",
            offset=offset,
            size=max(size, 1),
            io_type=io_type,
        )
        for ticks, hostname, disknum, io_type, offset, size in parsed
    ]


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------
def _rows(source: str | Path | TextIO) -> Iterator[tuple[int, list[str]]]:
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            yield from enumerate(csv.reader(handle), start=1)
    else:
        yield from enumerate(csv.reader(source), start=1)


def _parse_logical_row(row: list[str]) -> LogicalIORecord:
    return LogicalIORecord(
        timestamp=float(row[0]),
        item_id=row[1],
        offset=int(row[2]),
        size=int(row[3]),
        io_type=IOType.parse(row[4]),
        sequential=row[5] == "1",
    )
