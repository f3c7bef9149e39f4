"""Data items and workload containers.

A **data item** is the paper's unit of application data (§II-C.1): a
table or index for DBMS workloads, a file for file servers, always lying
wholly on one disk enclosure.  A :class:`Workload` bundles the item
catalog, the volume layout, and the generated logical I/O trace, and
knows how to install itself into a :class:`~repro.simulation.SimulationContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.errors import WorkloadError
from repro.simulation import SimulationContext, default_volume
from repro.trace.columnar import ColumnarTrace


@dataclass(frozen=True)
class DataItemSpec:
    """Catalog entry for one data item."""

    item_id: str
    size_bytes: int
    #: Index of the enclosure the item initially lives on.
    enclosure_index: int
    #: Optional volume name; defaults to the enclosure's default volume.
    volume: str | None = None
    #: Free-form kind tag ("table", "index", "file", "log", "work", ...).
    kind: str = "file"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise WorkloadError(
                f"item {self.item_id!r} must have positive size"
            )
        if self.enclosure_index < 0:
            raise WorkloadError(
                f"item {self.item_id!r} has negative enclosure index"
            )


@dataclass
class Workload:
    """A generated workload: items, volumes, trace, and metadata."""

    name: str
    duration: float
    enclosure_count: int
    items: list[DataItemSpec]
    #: The trace, always columnar: a record sequence passed in is
    #: packed once on construction.
    records: ColumnarTrace
    #: Extra volumes to create: (volume name, enclosure index).
    volumes: list[tuple[str, int]] = field(default_factory=list)
    description: str = ""
    #: Application-level reference metrics without power saving — e.g.
    #: ``{"tpmC": 1859.5}`` for OLTP — used by the §VII-A.5 conversions.
    app_metrics: dict[str, float] = field(default_factory=dict)
    #: Named time windows inside the run (e.g. TPC-H query executions):
    #: ``(name, start, end)``.  Used for per-query response reporting.
    phases: list[tuple[str, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError("workload duration must be positive")
        if self.enclosure_count <= 0:
            raise WorkloadError("enclosure_count must be positive")
        for item in self.items:
            if item.enclosure_index >= self.enclosure_count:
                raise WorkloadError(
                    f"item {item.item_id!r} placed on enclosure "
                    f"{item.enclosure_index} but workload has only "
                    f"{self.enclosure_count}"
                )
        if not isinstance(self.records, ColumnarTrace):
            self.records = ColumnarTrace.from_records(self.records)
        timestamps = np.asarray(self.records.timestamps)
        if (timestamps[1:] < timestamps[:-1]).any():
            raise WorkloadError("trace records are not time-ordered")

    @property
    def io_count(self) -> int:
        """Number of records in the generated trace."""
        return len(self.records)

    def columnar(self) -> ColumnarTrace:
        """The trace as a :class:`~repro.trace.columnar.ColumnarTrace`.

        That is :attr:`records` itself: the generators build the columns
        directly (:func:`repro.workloads.base.merge_streams`) and any
        record sequence is packed on construction, so nothing is packed
        here.  Every replay reads these columns, and
        :func:`repro.experiments.parallel.workload_fingerprint` hashes
        their ``.ecot`` image.
        """
        return self.records

    def item_ids(self) -> list[str]:
        """Ids of all data items in the set."""
        return [item.item_id for item in self.items]

    def install(self, context: SimulationContext) -> None:
        """Create volumes, place items, and register the logical mapping.

        The context must have at least ``enclosure_count`` enclosures.
        """
        names = context.enclosure_names()
        if len(names) < self.enclosure_count:
            raise WorkloadError(
                f"workload {self.name!r} needs {self.enclosure_count} "
                f"enclosures, context has {len(names)}"
            )
        for volume, index in self.volumes:
            context.virtualization.create_volume(volume, names[index])
        for item in self.items:
            volume = item.volume or default_volume(names[item.enclosure_index])
            context.virtualization.add_item(item.item_id, item.size_bytes, volume)
            context.app_monitor.register_item(item.item_id, volume)
