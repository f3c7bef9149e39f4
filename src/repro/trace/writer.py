"""Trace writers: serialize I/O traces to CSV.

The on-disk format is a plain CSV with a header line, one record per
line: ``timestamp,item_id,offset,size,io_type,sequential``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, TextIO

from repro.trace.records import LogicalIORecord

LOGICAL_HEADER = ["timestamp", "item_id", "offset", "size", "io_type", "sequential"]


def write_logical_trace(
    records: Iterable[LogicalIORecord], destination: str | Path | TextIO
) -> int:
    """Write a logical trace as CSV; returns the record count."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            return _write_rows(handle, records)
    return _write_rows(destination, records)


def _write_rows(handle: TextIO, records: Iterable[LogicalIORecord]) -> int:
    writer = csv.writer(handle)
    writer.writerow(LOGICAL_HEADER)
    count = 0
    for record in records:
        writer.writerow(
            [
                f"{record.timestamp:.6f}",
                record.item_id,
                str(record.offset),
                str(record.size),
                record.io_type.value,
                "1" if record.sequential else "0",
            ]
        )
        count += 1
    return count
