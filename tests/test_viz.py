"""Tests for ASCII chart rendering."""

from __future__ import annotations

import pytest

from repro.viz.ascii_charts import bar_chart, sparkline


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series(self):
        s = sparkline([0, 1, 2, 3])
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestBarChart:
    def test_contains_labels_and_values(self):
        out = bar_chart(["alpha", "b"], [10, 5], width=10)
        assert "alpha" in out and "10" in out and "5" in out

    def test_peak_fills_width(self):
        out = bar_chart(["a", "b"], [10, 5], width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_title_and_unit(self):
        out = bar_chart(["a"], [1], title="T", unit="%")
        assert out.splitlines()[0] == "T"
        assert "1%" in out

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [-1])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a", "b"], [1])

    def test_all_zero(self):
        out = bar_chart(["a"], [0])
        assert "█" not in out
