"""Trace subsystem: record types, readers/writers, replay, statistics."""

from repro.trace.columnar import ColumnarTrace
from repro.trace.reader import (
    iter_logical_trace,
    iter_physical_trace,
    read_logical_trace,
    read_msr_trace,
    read_physical_trace,
)
from repro.trace.records import (
    IOType,
    LogicalIORecord,
    PhysicalIORecord,
    PowerSample,
    PowerStatusRecord,
)
from repro.trace.stats import TraceSummary, summarize
from repro.trace.writer import write_logical_trace, write_physical_trace

__all__ = [
    "ColumnarTrace",
    "IOType",
    "LogicalIORecord",
    "PhysicalIORecord",
    "PowerSample",
    "PowerStatusRecord",
    "TraceSummary",
    "iter_logical_trace",
    "iter_physical_trace",
    "read_logical_trace",
    "read_msr_trace",
    "read_physical_trace",
    "summarize",
    "write_logical_trace",
    "write_physical_trace",
]
