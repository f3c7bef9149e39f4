"""Columnar logical-trace representation and the ``.ecot`` file format.

The per-record-object hot path caps replay throughput: every
:class:`~repro.trace.records.LogicalIORecord` is a frozen dataclass
whose construction, validation, and attribute access all cost Python
bytecode per I/O.  :class:`ColumnarTrace` stores the same trace as
parallel primitive columns —

* ``timestamps`` — float64 (``array('d')``),
* ``item_index`` — uint32 index into the interned :attr:`items` table,
* ``offsets`` / ``sizes`` — int64 (``array('q')``),
* ``flags`` — one byte per record (:data:`FLAG_READ` | :data:`FLAG_SEQUENTIAL`)

— built once: from any record iterable, by the workload generators
straight from numpy (:func:`repro.workloads.base.merge_streams`), or
loaded from a file.  The simulation kernel's batch
pump (:meth:`repro.engine.kernel.SimulationKernel.replay`) consumes the
columns directly, and everything that still wants record objects can
iterate the trace (iteration materializes records lazily), so a
``ColumnarTrace`` is a drop-in ``Sequence[LogicalIORecord]``.

``.ecot`` ("EcoStor trace") is the trace's versioned binary form: a
fixed little-endian header, the interned item table, then the raw
column payloads, 8-byte aligned so :meth:`ColumnarTrace.load` can map
the file with :mod:`mmap` and cast zero-copy memoryviews over the
columns.  ``ecostor trace pack`` converts CSV/MSR traces into it; see
``docs/trace-format.md`` for the byte-level layout.
"""

from __future__ import annotations

import mmap as mmap_mod
import struct
from array import array
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, overload

import numpy as np

from repro.errors import TraceError, ValidationError
from repro.trace.records import IOType, LogicalIORecord

__all__ = [
    "ECOT_MAGIC",
    "ECOT_VERSION",
    "FLAG_READ",
    "FLAG_SEQUENTIAL",
    "ColumnarTrace",
]

#: File magic of the ``.ecot`` format (first four bytes).
ECOT_MAGIC = b"ECOT"

#: Current ``.ecot`` format version, written into every header and
#: checked on load — unknown versions are refused, never guessed at.
ECOT_VERSION = 1

#: Flag bit: the record is a read (else a write).
FLAG_READ = 0x01

#: Flag bit: the application marked the access sequential.
FLAG_SEQUENTIAL = 0x02

#: Fixed header: magic, version, record count, item count, header+item
#: table span in bytes (= offset of the first column, 8-byte aligned).
_HEADER = struct.Struct("<4sIQIQ")

#: Length prefix of one interned item id (UTF-8 byte length).
_ITEM_LEN = struct.Struct("<H")

#: Alignment of the column payloads, so memoryview casts over an
#: mmap-ed file start on natural boundaries.
_COLUMN_ALIGN = 8

_TS_CODE = "d"
_INDEX_CODE = "I"
_BYTES_CODE = "q"


def _pad(offset: int) -> int:
    """Bytes of padding needed to align ``offset`` to a column boundary."""
    return (-offset) % _COLUMN_ALIGN


class ColumnarTrace(Sequence[LogicalIORecord]):
    """A logical I/O trace as parallel primitive columns.

    Immutable by convention: the columns are built once (by
    :meth:`from_records`, :meth:`load` or the workload generators) and
    only read afterwards.
    Indexing and iteration materialize :class:`LogicalIORecord` objects
    on demand, so the trace is usable anywhere a record sequence is —
    but the batch replay pump reads the columns directly and never
    materializes at all.
    """

    __slots__ = (
        "items",
        "timestamps",
        "item_index",
        "offsets",
        "sizes",
        "flags",
    )

    def __init__(
        self,
        items: tuple[str, ...],
        timestamps: "array[float] | memoryview",
        item_index: "array[int] | memoryview",
        offsets: "array[int] | memoryview",
        sizes: "array[int] | memoryview",
        flags: "bytes | memoryview",
    ) -> None:
        n = len(timestamps)
        if not (len(item_index) == len(offsets) == len(sizes) == len(flags) == n):
            raise ValidationError(
                "columnar trace requires equal-length columns, got "
                f"ts={len(timestamps)}, item={len(item_index)}, "
                f"offset={len(offsets)}, size={len(sizes)}, flags={len(flags)}"
            )
        self.items = items
        self.timestamps = timestamps
        self.item_index = item_index
        self.offsets = offsets
        self.sizes = sizes
        self.flags = flags

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[LogicalIORecord]) -> "ColumnarTrace":
        """Build the columns from any record iterable (one pass).

        Item ids are interned in first-appearance order; the record
        order is preserved exactly (the trace need not be time-ordered —
        the replayer validates ordering itself, and readers may want to
        pack raw unsorted captures).
        """
        timestamps = array(_TS_CODE)
        item_index = array(_INDEX_CODE)
        offsets = array(_BYTES_CODE)
        sizes = array(_BYTES_CODE)
        flags = bytearray()
        intern: dict[str, int] = {}
        for record in records:
            index = intern.setdefault(record.item_id, len(intern))
            timestamps.append(record.timestamp)
            item_index.append(index)
            offsets.append(record.offset)
            sizes.append(record.size)
            flag = FLAG_READ if record.io_type is IOType.READ else 0
            if record.sequential:
                flag |= FLAG_SEQUENTIAL
            flags.append(flag)
        return cls(
            items=tuple(intern),
            timestamps=timestamps,
            item_index=item_index,
            offsets=offsets,
            sizes=sizes,
            flags=bytes(flags),
        )

    def take(self, rows: np.ndarray) -> "ColumnarTrace":
        """The records at positions ``rows``, in that order.

        One numpy gather per column.  Item ids are re-interned in
        first-appearance order of the result, so it equals
        :meth:`from_records` over the same records, column types
        included.
        """
        slot: dict[str, int] = {}
        canonical = np.array(
            [slot.setdefault(item, len(slot)) for item in self.items],
            dtype=np.int64,
        )
        names = tuple(slot)
        raw = canonical[np.frombuffer(self.item_index, dtype=np.uint32)[rows]]
        present, first = np.unique(raw, return_index=True)
        appearance = present[np.argsort(first, kind="stable")]
        renumber = np.zeros(len(names), dtype=np.uint32)
        renumber[appearance] = np.arange(len(appearance), dtype=np.uint32)
        timestamps = np.frombuffer(self.timestamps, dtype=np.float64)[rows]
        offsets = np.frombuffer(self.offsets, dtype=np.int64)[rows]
        sizes = np.frombuffer(self.sizes, dtype=np.int64)[rows]
        return ColumnarTrace(
            items=tuple(names[i] for i in appearance),
            timestamps=array(_TS_CODE, timestamps.tobytes()),
            item_index=array(_INDEX_CODE, renumber[raw].tobytes()),
            offsets=array(_BYTES_CODE, offsets.tobytes()),
            sizes=array(_BYTES_CODE, sizes.tobytes()),
            flags=np.frombuffer(self.flags, dtype=np.uint8)[rows].tobytes(),
        )

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    def _materialize(self, i: int) -> LogicalIORecord:
        flag = self.flags[i]
        return LogicalIORecord(
            timestamp=self.timestamps[i],
            item_id=self.items[self.item_index[i]],
            offset=self.offsets[i],
            size=self.sizes[i],
            io_type=IOType.READ if flag & FLAG_READ else IOType.WRITE,
            sequential=bool(flag & FLAG_SEQUENTIAL),
        )

    @overload
    def __getitem__(self, index: int) -> LogicalIORecord: ...

    @overload
    def __getitem__(self, index: slice) -> "ColumnarTrace": ...

    def __getitem__(
        self, index: "int | slice"
    ) -> "LogicalIORecord | ColumnarTrace":
        if isinstance(index, slice):
            # Views over the same buffers: a slice copies no column.
            return ColumnarTrace(
                items=self.items,
                timestamps=memoryview(self.timestamps)[index],
                item_index=memoryview(self.item_index)[index],
                offsets=memoryview(self.offsets)[index],
                sizes=memoryview(self.sizes)[index],
                flags=memoryview(self.flags)[index],
            )
        n = len(self.timestamps)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"record index {index} out of range ({n} records)")
        return self._materialize(index)

    def __iter__(self) -> Iterator[LogicalIORecord]:
        for i in range(len(self.timestamps)):
            yield self._materialize(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            # Compared as the record sequence the trace stands in for.
            return list(self) == list(other)
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.items == other.items
            and list(self.timestamps) == list(other.timestamps)
            and list(self.item_index) == list(other.item_index)
            and list(self.offsets) == list(other.offsets)
            and list(self.sizes) == list(other.sizes)
            and bytes(self.flags) == bytes(other.flags)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity only
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace({len(self)} records, {len(self.items)} items)"
        )

    # ------------------------------------------------------------------
    # .ecot file format
    # ------------------------------------------------------------------
    def save(self, path: "str | Path") -> int:
        """Write the trace as a version-``1`` ``.ecot`` file.

        Returns the number of records written.  The write is atomic at
        the filesystem level only insofar as it truncates-then-writes;
        callers wanting atomicity should write to a temp file and rename.
        """
        with open(path, "wb") as handle:
            self.write_to(handle.write)
        return len(self)

    def write_to(self, write: Callable[[bytes], object]) -> None:
        """Feed the trace's ``.ecot`` image, in order, to ``write``.

        The one serializer behind :meth:`save` and the experiment
        cache's trace fingerprint
        (:func:`repro.experiments.parallel.workload_fingerprint`), so a
        cache key is the hash of exactly the bytes a saved trace holds.
        """
        item_table = bytearray()
        for item_id in self.items:
            encoded = item_id.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise TraceError(
                    f"item id too long for .ecot ({len(encoded)} bytes): "
                    f"{item_id[:40]!r}..."
                )
            item_table += _ITEM_LEN.pack(len(encoded))
            item_table += encoded
        table_end = _HEADER.size + len(item_table)
        write(
            _HEADER.pack(
                ECOT_MAGIC,
                ECOT_VERSION,
                len(self),
                len(self.items),
                table_end + _pad(table_end),
            )
        )
        write(bytes(item_table))
        write(b"\x00" * _pad(table_end))
        for column in (
            self.timestamps,
            self.item_index,
            self.offsets,
            self.sizes,
            self.flags,
        ):
            write(bytes(column))

    @classmethod
    def load(cls, path: "str | Path", use_mmap: bool = True) -> "ColumnarTrace":
        """Read an ``.ecot`` file back into a columnar trace.

        With ``use_mmap`` (the default) the column payloads are
        zero-copy memoryview casts over a private memory map of the
        file; pass ``use_mmap=False`` to copy them into ``array``
        objects instead (e.g. when the file will be replaced in place).

        Every malformed file raises :class:`~repro.errors.TraceError`:
        a bad magic or version, a truncated header, item table or
        column, an item id that is not UTF-8, a header span other than
        the aligned end of the item table, and any column value outside
        the bounds a :class:`LogicalIORecord` enforces.
        """
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise TraceError(f"{path}: truncated .ecot header")
            magic, version, record_count, item_count, span = _HEADER.unpack(head)
            if magic != ECOT_MAGIC:
                raise TraceError(
                    f"{path}: not an .ecot file (magic {magic!r})"
                )
            if version != ECOT_VERSION:
                raise TraceError(
                    f"{path}: unsupported .ecot version {version} "
                    f"(this build reads version {ECOT_VERSION})"
                )
            items = cls._read_item_table(handle, item_count, path)
            table_end = handle.tell()
            if span != table_end + _pad(table_end):
                raise TraceError(
                    f"{path}: header span {span} is not the aligned end "
                    f"of the item table ({table_end + _pad(table_end)})"
                )
            if use_mmap:
                buffer: "mmap_mod.mmap | bytes" = mmap_mod.mmap(
                    handle.fileno(), 0, access=mmap_mod.ACCESS_READ
                )
            else:
                handle.seek(0)
                buffer = handle.read()
        return cls._from_buffer(buffer, items, record_count, span, path)

    @staticmethod
    def _read_item_table(
        handle: BinaryIO, item_count: int, path: "str | Path"
    ) -> tuple[str, ...]:
        items = []
        read = handle.read
        for _ in range(item_count):
            raw_len = read(_ITEM_LEN.size)
            if len(raw_len) < _ITEM_LEN.size:
                raise TraceError(f"{path}: truncated .ecot item table")
            (length,) = _ITEM_LEN.unpack(raw_len)
            encoded = read(length)
            if len(encoded) < length:
                raise TraceError(f"{path}: truncated .ecot item table")
            try:
                items.append(encoded.decode("utf-8"))
            except UnicodeDecodeError as error:
                raise TraceError(
                    f"{path}: item id {len(items)} is not valid UTF-8 "
                    f"({error.reason})"
                ) from None
        return tuple(items)

    @classmethod
    def _from_buffer(
        cls,
        buffer: "mmap_mod.mmap | bytes",
        items: tuple[str, ...],
        record_count: int,
        span: int,
        path: "str | Path",
    ) -> "ColumnarTrace":
        view = memoryview(buffer)
        sizes_of = (
            ("timestamps", _TS_CODE, 8),
            ("item_index", _INDEX_CODE, 4),
            ("offsets", _BYTES_CODE, 8),
            ("sizes", _BYTES_CODE, 8),
            ("flags", "B", 1),
        )
        expected = span + sum(record_count * width for _, _, width in sizes_of)
        if len(view) < expected:
            raise TraceError(
                f"{path}: truncated .ecot columns "
                f"({len(view)} bytes, need {expected})"
            )
        columns: dict[str, memoryview] = {}
        offset = span
        for name, code, width in sizes_of:
            chunk = view[offset : offset + record_count * width]
            columns[name] = chunk.cast(code)
            offset += record_count * width
        _check_bounds(columns, len(items), path)
        return cls(
            items=items,
            timestamps=columns["timestamps"],
            item_index=columns["item_index"],
            offsets=columns["offsets"],
            sizes=columns["sizes"],
            flags=columns["flags"],
        )


def _check_bounds(
    columns: dict[str, memoryview], item_count: int, path: "str | Path"
) -> None:
    """Refuse column values a :class:`LogicalIORecord` would refuse.

    The replay reads the columns directly, so this is the only place to
    check them: every item index names an entry of the item table,
    every timestamp is finite and non-negative, offsets are
    non-negative, sizes positive, and flags use only the defined bits.
    """
    if not len(columns["timestamps"]):
        return
    item_index = np.asarray(columns["item_index"])
    if item_index.max() >= item_count:
        raise TraceError(
            f"{path}: item index {item_index.max()} "
            f"outside the {item_count}-entry item table"
        )
    timestamps = np.asarray(columns["timestamps"])
    if not np.isfinite(timestamps).all():
        raise TraceError(f"{path}: timestamps column holds a non-finite value")
    for name, lowest in (("timestamps", 0), ("offsets", 0), ("sizes", 1)):
        low = np.asarray(columns[name]).min()
        if low < lowest:
            raise TraceError(
                f"{path}: {name} column holds {low}, "
                f"below the minimum of {lowest}"
            )
    if np.asarray(columns["flags"]).max() > FLAG_READ | FLAG_SEQUENTIAL:
        raise TraceError(f"{path}: flags column holds undefined bits")
