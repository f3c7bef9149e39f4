"""I/O trace record types.

Two trace levels exist, mirroring the paper's two monitors (§III):

* :class:`LogicalIORecord` — what the **Application Monitor** captures at
  the file/record layer: timestamp, data-item identifier, offset within
  the item, size, and read/write type.
* :class:`PhysicalIORecord` — what the **Storage Monitor** captures at the
  block-virtualization layer: timestamp, disk-enclosure name, block
  address, and type.

Records are immutable and ordered by timestamp so traces sort naturally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ValidationError


class IOType(enum.Enum):
    """Read or write."""

    READ = "R"
    WRITE = "W"

    @property
    def is_read(self) -> bool:
        """Whether this is the read I/O type."""
        return self is _READ

    @classmethod
    def parse(cls, text: str) -> "IOType":
        """Parse ``'R'``/``'W'`` (case-insensitive, also accepts full words)."""
        normalized = text.strip().upper()
        if normalized in ("R", "READ"):
            return cls.READ
        if normalized in ("W", "WRITE"):
            return cls.WRITE
        raise ValidationError(f"unknown I/O type {text!r}")


# Bound once: on CPython 3.11 each ``IOType.READ`` load in a method body
# goes through ``EnumType.__getattr__``, and :attr:`IOType.is_read` runs
# per bulk transfer.
_READ = IOType.READ


@dataclass(frozen=True, order=True, slots=True)
class LogicalIORecord:
    """One application-level I/O (paper §III-A, "Logical I/O Trace").

    ``sequential`` is the application's access-pattern hint (a table scan
    versus a random index probe); the storage controller uses it to select
    the sequential or random service rate.

    Slotted: records are materialized by the million on the replay hot
    path, and ``__slots__`` keeps both construction and attribute access
    cheap (the columnar representation in :mod:`repro.trace.columnar`
    avoids materializing them at all).
    """

    timestamp: float
    item_id: str = field(compare=False)
    offset: int = field(compare=False)
    size: int = field(compare=False)
    io_type: IOType = field(compare=False)
    sequential: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValidationError(f"timestamp must be non-negative: {self.timestamp}")
        if self.offset < 0:
            raise ValidationError(f"offset must be non-negative: {self.offset}")
        if self.size <= 0:
            raise ValidationError(f"size must be positive: {self.size}")

    @property
    def is_read(self) -> bool:
        """Whether this logical record is a read."""
        return self.io_type.is_read


@dataclass(frozen=True, order=True, slots=True)
class PhysicalIORecord:
    """One block-level I/O as issued to a disk enclosure (paper §III-B)."""

    timestamp: float
    enclosure: str = field(compare=False)
    block_address: int = field(compare=False)
    count: int = field(compare=False, default=1)
    io_type: IOType = field(compare=False, default=IOType.READ)
    #: The data item this physical I/O serves, when known.  The paper's
    #: power-management component joins logical and physical traces to
    #: find it; here the controller's physical tap passes the item id
    #: with each physical I/O, and no code joins the two traces.
    item_id: str | None = field(compare=False, default=None)

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValidationError(f"timestamp must be non-negative: {self.timestamp}")
        if self.count <= 0:
            raise ValidationError(f"count must be positive: {self.count}")

    @property
    def is_read(self) -> bool:
        """Whether this physical record is a read."""
        return self.io_type.is_read
