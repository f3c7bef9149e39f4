"""Unit constants, dimension aliases, and small conversion helpers.

The simulator works in SI base units throughout: **seconds** for time,
**bytes** for data sizes, **watts** for power, and **joules** for energy.
These constants exist so that call sites read naturally
(``5 * units.MINUTE``, ``500 * units.MB``) instead of sprinkling magic
numbers — and ``ecostor check`` rule R2 enforces exactly that.

Types are deliberately consistent: data-size constants are ``int``
(byte counts are exact), while time and power constants are ``float``
(they scale continuous quantities).  All are :data:`typing.Final`.

The module also defines the **dimension aliases** :data:`Seconds`,
:data:`Joules`, :data:`Watts`, :data:`Bytes`, and :data:`Rate`.  At
runtime (and to mypy) they are plain ``float``/``int`` — annotating with
them costs nothing — but ``ecostor check`` (:mod:`repro.devtools.analysis`)
reads them as *dimensions* and flags mixed-dimension arithmetic,
comparisons, returns, and arguments across the whole program (check ids
D101–D104).  Annotate any quantity-carrying signature with the alias of
its unit and the checker propagates it everywhere the value flows.
"""

from __future__ import annotations

from typing import Final, TypeAlias

from repro.errors import ValidationError

# --- dimension aliases (read by repro.devtools.analysis) -----------------
#: Virtual time / durations, in SI seconds.
Seconds: TypeAlias = float
#: Energy, in joules (integrated watts × seconds).
Joules: TypeAlias = float
#: Power, in watts (joules per second).
Watts: TypeAlias = float
#: Data sizes, in exact bytes.
Bytes: TypeAlias = int
#: Throughput, in bytes per second.
Rate: TypeAlias = float

# --- data sizes (binary multiples, as storage vendors use for cache) ----
KB: Final[int] = 1024
MB: Final[int] = 1024 * KB
GB: Final[int] = 1024 * MB
TB: Final[int] = 1024 * GB

#: Size of one I/O block in the block-virtualization layer.  Enterprise
#: storage commonly exposes 4 KiB blocks; all offsets/sizes in physical
#: records are multiples of this.
BLOCK_SIZE: Final[int] = 4 * KB

# --- time ----------------------------------------------------------------
SECOND: Final[float] = 1.0
MINUTE: Final[float] = 60.0
HOUR: Final[float] = 60.0 * MINUTE
DAY: Final[float] = 24.0 * HOUR

# --- power / energy -------------------------------------------------------
WATT: Final[float] = 1.0
KILOWATT: Final[float] = 1000.0

#: Suffix → byte multiplier accepted by :func:`parse_size`.  Decimal-SI
#: spellings (``KB``) and explicit binary spellings (``KiB``) both map to
#: the binary multiples used throughout the simulator.
_SIZE_SUFFIXES: Final[dict[str, int]] = {
    "B": 1,
    "KB": KB,
    "KIB": KB,
    "K": KB,
    "MB": MB,
    "MIB": MB,
    "M": MB,
    "GB": GB,
    "GIB": GB,
    "G": GB,
    "TB": TB,
    "TIB": TB,
    "T": TB,
}


def bytes_to_blocks(size: Bytes) -> int:
    """Return the number of blocks needed to hold ``size`` bytes.

    Rounds up, so a single byte still occupies one block.

    >>> bytes_to_blocks(1)
    1
    >>> bytes_to_blocks(4096)
    1
    >>> bytes_to_blocks(4097)
    2
    >>> bytes_to_blocks(8192)
    2
    >>> bytes_to_blocks(0)
    0
    >>> bytes_to_blocks(-1)
    Traceback (most recent call last):
        ...
    repro.errors.ValidationError: size must be non-negative, got -1
    """
    if size < 0:
        raise ValidationError(f"size must be non-negative, got {size}")
    return -(-size // BLOCK_SIZE)


def blocks_to_bytes(blocks: int) -> Bytes:
    """Return the byte size of ``blocks`` whole blocks.

    >>> blocks_to_bytes(2)
    8192
    """
    if blocks < 0:
        raise ValidationError(f"blocks must be non-negative, got {blocks}")
    return blocks * BLOCK_SIZE


def parse_size(text: str) -> Bytes:
    """Parse a human-readable size (``'500 MB'``, ``'2GiB'``) into bytes.

    Multipliers are binary (``1 KB == 1024 B``), matching the constants
    above; a bare number means bytes.  Fractional values are allowed and
    rounded to whole bytes.

    >>> parse_size("500 MB")
    524288000
    >>> parse_size("2GiB")
    2147483648
    >>> parse_size("4 KiB") == BLOCK_SIZE
    True
    >>> parse_size("1.5 KB")
    1536
    >>> parse_size("512")
    512
    >>> parse_size("ten MB")
    Traceback (most recent call last):
        ...
    repro.errors.ValidationError: unparseable size 'ten MB'
    >>> parse_size("12 QB")
    Traceback (most recent call last):
        ...
    repro.errors.ValidationError: unknown size suffix 'QB' in '12 QB'
    """
    stripped = text.strip()
    number = stripped
    suffix = ""
    for index, char in enumerate(stripped):
        if char.isalpha():
            number, suffix = stripped[:index], stripped[index:]
            break
    try:
        value = float(number)
    except ValueError:
        raise ValidationError(f"unparseable size {text!r}") from None
    suffix = suffix.strip().upper()
    if suffix and suffix not in _SIZE_SUFFIXES:
        raise ValidationError(f"unknown size suffix {suffix!r} in {text!r}")
    multiplier = _SIZE_SUFFIXES.get(suffix, 1)
    if value < 0:
        raise ValidationError(f"size must be non-negative, got {text!r}")
    return round(value * multiplier)


def format_bytes(size: float) -> str:
    """Human-readable byte count, e.g. ``'23.1 GB'``.

    >>> format_bytes(23.1 * GB)
    '23.1 GB'
    >>> format_bytes(512)
    '512 B'
    """
    value = float(size)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_duration(seconds: Seconds) -> str:
    """Human-readable duration, e.g. ``'1.8 hr'`` or ``'52 sec'``.

    >>> format_duration(52)
    '52 sec'
    >>> format_duration(6480)
    '1.8 hr'
    >>> format_duration(23 * HOUR)
    '23 hr'
    >>> format_duration(2 * DAY)
    '2 day'
    >>> format_duration(1.5 * DAY)
    '1.5 day'
    >>> format_duration(14 * DAY)
    '14 day'
    """
    if seconds < MINUTE:
        return f"{seconds:g} sec"
    if seconds < HOUR:
        return f"{seconds / MINUTE:g} min"
    if seconds < DAY:
        return f"{seconds / HOUR:g} hr"
    return f"{seconds / DAY:g} day"
