"""Tests for the analysis helpers (time formatting, speedups, tables)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.speedup import speedup, speedup_table
from repro.analysis.tables import Table
from repro.analysis.timefmt import format_hms, parse_hms


class TestTimeFormat:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (10, "10s"),
            (9, "09s"),
            (112, "01m52s"),
            (483, "08m03s"),
            (4053, "1h07m33s"),
            (100806, "28h00m06s"),
            (1991, "33m11s"),
        ],
    )
    def test_format_matches_paper_style(self, seconds, expected):
        assert format_hms(seconds) == expected

    def test_format_days(self):
        assert format_hms((9 * 24 + 18) * 3600 + 58 * 60) == "09d18h58m"

    def test_parse_examples(self):
        assert parse_hms("08m03s") == 483.0
        assert parse_hms("1h07m33s") == 4053.0
        assert parse_hms("(2h10m)") == 7800.0
        assert parse_hms("(09d18h58m)") == 845880.0

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_hms("hello")
        with pytest.raises(ValueError):
            parse_hms("")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_hms(-1)

    @given(st.integers(0, 10 * 24 * 3600))
    def test_roundtrip_within_a_minute(self, seconds):
        # Days format drops the seconds digit, so the roundtrip is accurate to 60s.
        assert abs(parse_hms(format_hms(seconds)) - seconds) < 60


class TestSpeedup:
    def test_speedup_and_efficiency(self):
        assert speedup(100.0, 25.0) == 4.0

    def test_speedup_table(self):
        table = speedup_table({1: 100.0, 4: 25.0, 8: 12.5})
        assert table == {1: 1.0, 4: 4.0, 8: 8.0}

    def test_speedup_table_needs_baseline(self):
        with pytest.raises(ValueError):
            speedup_table({4: 25.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(-1.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestTable:
    def test_render_contains_cells(self):
        table = Table(title="Demo", columns=["level 3", "level 4"], row_label="clients")
        table.add_row("64", **{"level 3": "10s", "level 4": "33m11s"})
        table.add_row("8", **{"level 3": "01m11s"})
        text = table.render()
        assert "Demo" in text and "33m11s" in text
        assert "—" in text  # missing cell

    def test_cell_lookup(self):
        table = Table(title="T", columns=["a"])
        table.add_row("x", a="1")
        assert table.cell("x", "a") == "1"
        with pytest.raises(KeyError):
            table.cell("missing", "a")

    def test_unknown_column_rejected(self):
        table = Table(title="T", columns=["a"])
        with pytest.raises(ValueError):
            table.add_row("x", b="1")
