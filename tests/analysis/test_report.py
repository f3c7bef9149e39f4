"""Tests for repro.analysis.report."""

from repro import units
from repro.analysis.report import (
    PaperRow,
    gigabytes,
    percent,
    render_table,
    seconds,
    watts,
)


class TestFormatters:
    def test_watts(self):
        assert watts(2977.94) == "2977.9 W"

    def test_percent(self):
        assert percent(25.83) == "25.8 %"

    def test_seconds_sub_second(self):
        assert seconds(0.0171) == "17.1 ms"

    def test_seconds_above_one(self):
        assert seconds(2.345) == "2.35 s"

    def test_gigabytes(self):
        assert gigabytes(23.1 * units.GB) == "23.10 GB"


class TestRenderTable:
    def test_contains_rows_and_header(self):
        rows = [
            PaperRow("power proposed", "2209.2 W", "2100.0 W", "close"),
            PaperRow("power pdc", "2873.9 W", "2900.0 W"),
        ]
        text = render_table("Fig 8", rows)
        assert "Fig 8" in text
        assert "paper" in text and "measured" in text
        assert "power proposed" in text
        assert "2209.2 W" in text
        assert "close" in text

    def test_alignment_consistent(self):
        rows = [PaperRow("a", "1", "2"), PaperRow("longer label", "3", "4")]
        lines = render_table("t", rows).splitlines()
        data = lines[3:]
        # Measured column starts at the same offset in every data line.
        positions = {line.rindex("  ") for line in data}
        assert len(positions) == 1
