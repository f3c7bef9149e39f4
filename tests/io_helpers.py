"""Unpack a :class:`LogicalIORecord` into the scalar per-I/O arguments.

``StorageController.submit`` and ``PowerPolicy.after_io`` both take one
I/O as plain fields; tests build records tersely and spread them with
``*io_fields(record)``.
"""

from __future__ import annotations

from repro.trace.records import LogicalIORecord


def io_fields(
    record: LogicalIORecord,
) -> tuple[float, str, int, int, bool, bool]:
    """``(timestamp, item_id, offset, size, is_read, sequential)``."""
    return (
        record.timestamp,
        record.item_id,
        record.offset,
        record.size,
        record.is_read,
        record.sequential,
    )
