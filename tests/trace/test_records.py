"""Tests for repro.trace.records."""

import pytest

from repro.trace.records import IOType, LogicalIORecord, PhysicalIORecord


class TestIOType:
    def test_parse_single_letters(self):
        assert IOType.parse("R") is IOType.READ
        assert IOType.parse("w") is IOType.WRITE

    def test_parse_full_words(self):
        assert IOType.parse("Read") is IOType.READ
        assert IOType.parse("WRITE") is IOType.WRITE

    def test_parse_strips_whitespace(self):
        assert IOType.parse(" R ") is IOType.READ

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError):
            IOType.parse("X")

    def test_is_read(self):
        assert IOType.READ.is_read
        assert not IOType.WRITE.is_read


class TestLogicalIORecord:
    def test_basic_fields(self):
        rec = LogicalIORecord(1.5, "item", 4096, 8192, IOType.READ, True)
        assert rec.is_read
        assert rec.sequential

    def test_ordering_by_timestamp(self):
        a = LogicalIORecord(1.0, "z", 0, 1, IOType.READ)
        b = LogicalIORecord(2.0, "a", 0, 1, IOType.WRITE)
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            LogicalIORecord(-1.0, "a", 0, 1, IOType.READ)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            LogicalIORecord(0.0, "a", -1, 1, IOType.READ)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            LogicalIORecord(0.0, "a", 0, 0, IOType.READ)

    def test_frozen(self):
        rec = LogicalIORecord(0.0, "a", 0, 1, IOType.READ)
        with pytest.raises(AttributeError):
            rec.item_id = "b"  # type: ignore[misc]


class TestPhysicalIORecord:
    def test_defaults(self):
        rec = PhysicalIORecord(1.0, "e0", 42)
        assert rec.count == 1
        assert rec.is_read
        assert rec.item_id is None

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            PhysicalIORecord(1.0, "e0", 0, count=0)

    def test_ordering(self):
        a = PhysicalIORecord(1.0, "e1", 0)
        b = PhysicalIORecord(2.0, "e0", 0)
        assert a < b

