"""Bounded trace repository with disk spill.

Paper §III-A: "A logical I/O trace is captured when I/O is issued from
the application and stored into memory in the application monitor.  If
the memory becomes full, the I/O trace is stored in the repository of the
monitor."  :class:`TraceRepository` implements exactly that contract for
either record type: an in-memory buffer of bounded size that spills to a
CSV file when full, while still supporting full iteration (spilled
records first, then the in-memory tail).
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path
from typing import Generic, Iterator, TypeVar

from repro.errors import ValidationError
from repro.trace import reader as trace_reader
from repro.trace import writer as trace_writer
from repro.trace.records import LogicalIORecord, PhysicalIORecord

RecordT = TypeVar("RecordT", LogicalIORecord, PhysicalIORecord)


class TraceRepository(Generic[RecordT]):
    """Append-only record store: bounded memory, CSV spill file.

    Parameters
    ----------
    record_type:
        ``LogicalIORecord`` or ``PhysicalIORecord`` — selects the spill
        serialization.
    max_memory_records:
        In-memory buffer size; when exceeded the buffer is appended to
        the spill file and cleared.
    spill_dir:
        Directory for the spill file; a temporary directory by default.
    """

    def __init__(
        self,
        record_type: type[RecordT],
        max_memory_records: int = 100_000,
        spill_dir: str | Path | None = None,
    ) -> None:
        if max_memory_records <= 0:
            raise ValidationError("max_memory_records must be positive")
        self.record_type = record_type
        self.max_memory_records = max_memory_records
        self._memory: list[RecordT] = []
        self._spilled_count = 0
        self._spill_dir = Path(spill_dir) if spill_dir else None
        self._spill_path: Path | None = None

    def __len__(self) -> int:
        return self._spilled_count + len(self._memory)

    def append(self, record: RecordT) -> None:
        """Store one record, spilling to disk when memory fills up."""
        self._memory.append(record)
        if len(self._memory) >= self.max_memory_records:
            self._spill()

    def extend(self, records: list[RecordT]) -> None:
        """Store each record in order via :meth:`append`."""
        for record in records:
            self.append(record)

    def _spill(self) -> None:
        new_file = self._spill_path is None
        if self._spill_path is None:
            directory = self._spill_dir or Path(tempfile.mkdtemp(prefix="repro-trace-"))
            directory.mkdir(parents=True, exist_ok=True)
            suffix = "logical" if self.record_type is LogicalIORecord else "physical"
            self._spill_path = directory / f"spill-{suffix}-{id(self):x}.csv"
        with open(self._spill_path, "w" if new_file else "a", newline="") as handle:
            writer = csv.writer(handle)
            if new_file:
                writer.writerow(
                    trace_writer.LOGICAL_HEADER
                    if self.record_type is LogicalIORecord
                    else trace_writer.PHYSICAL_HEADER
                )
            writer.writerows(map(trace_writer.trace_row, self._memory))
        self._spilled_count += len(self._memory)
        self._memory.clear()

    def __iter__(self) -> Iterator[RecordT]:
        """Iterate all records: spilled (from disk) first, then memory."""
        if self._spill_path is not None:
            if self.record_type is LogicalIORecord:
                yield from trace_reader.iter_logical_trace(self._spill_path)  # type: ignore[misc]
            else:
                yield from trace_reader.iter_physical_trace(self._spill_path)  # type: ignore[misc]
        yield from list(self._memory)

    def clear(self) -> None:
        """Drop every stored record (and the spill file's contents)."""
        self._memory.clear()
        self._spilled_count = 0
        if self._spill_path is not None and self._spill_path.exists():
            self._spill_path.unlink()
        self._spill_path = None
