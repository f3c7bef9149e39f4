"""Trace subsystem: record types, readers/writers, replay, statistics."""

from repro.trace.columnar import ColumnarTrace
from repro.trace.reader import (
    iter_logical_trace,
    read_logical_trace,
    read_msr_trace,
)
from repro.trace.records import (
    IOType,
    LogicalIORecord,
    PhysicalIORecord,
)
from repro.trace.stats import TraceSummary, summarize
from repro.trace.writer import write_logical_trace

__all__ = [
    "ColumnarTrace",
    "IOType",
    "LogicalIORecord",
    "PhysicalIORecord",
    "TraceSummary",
    "iter_logical_trace",
    "read_logical_trace",
    "read_msr_trace",
    "summarize",
    "write_logical_trace",
]
