"""Trace writers: serialize I/O traces to CSV.

The on-disk format is a plain CSV with a header line, one record per
line.  Logical traces carry
``timestamp,item_id,offset,size,io_type,sequential``; physical traces
carry ``timestamp,enclosure,block_address,count,io_type,item_id``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, TextIO

from repro.trace.records import LogicalIORecord, PhysicalIORecord

LOGICAL_HEADER = ["timestamp", "item_id", "offset", "size", "io_type", "sequential"]
PHYSICAL_HEADER = [
    "timestamp",
    "enclosure",
    "block_address",
    "count",
    "io_type",
    "item_id",
]


def trace_row(record: LogicalIORecord | PhysicalIORecord) -> list[str]:
    """One CSV row of a logical or physical record, in its header's order."""
    if isinstance(record, LogicalIORecord):
        return [
            f"{record.timestamp:.6f}",
            record.item_id,
            str(record.offset),
            str(record.size),
            record.io_type.value,
            "1" if record.sequential else "0",
        ]
    return [
        f"{record.timestamp:.6f}",
        record.enclosure,
        str(record.block_address),
        str(record.count),
        record.io_type.value,
        record.item_id or "",
    ]


def write_logical_trace(
    records: Iterable[LogicalIORecord], destination: str | Path | TextIO
) -> int:
    """Write a logical trace as CSV; returns the record count."""
    return _write(destination, LOGICAL_HEADER, map(trace_row, records))


def write_physical_trace(
    records: Iterable[PhysicalIORecord], destination: str | Path | TextIO
) -> int:
    """Write a physical trace as CSV; returns the record count."""
    return _write(destination, PHYSICAL_HEADER, map(trace_row, records))


def _write(
    destination: str | Path | TextIO,
    header: list[str],
    rows: Iterable[list[str]],
) -> int:
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            return _write_rows(handle, header, rows)
    return _write_rows(destination, header, rows)


def _write_rows(handle: TextIO, header: list[str], rows: Iterable[list[str]]) -> int:
    writer = csv.writer(handle)
    writer.writerow(header)
    count = 0
    for row in rows:
        writer.writerow(row)
        count += 1
    return count
