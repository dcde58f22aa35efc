"""Tests for the ASCII chart renderers."""

from __future__ import annotations

import pytest

from repro.viz import line_chart, log_line_chart


class TestLineCharts:
    def test_contains_all_series_markers(self):
        chart = line_chart([1, 2, 3], {"one": [1, 2, 3], "two": [3, 2, 1]})
        assert "* one" in chart and "o two" in chart

    def test_axis_labels_present(self):
        chart = line_chart([1, 2], {"s": [1, 2]}, x_label="points n")
        assert "points n" in chart

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError, match="points for"):
            line_chart([1, 2], {"s": [1, 2, 3]})

    def test_log_chart_renders_decades(self):
        chart = log_line_chart(
            [512, 2048, 8192],
            {"proclus": [0.04, 0.2, 0.4], "gpu": [0.0015, 0.0019, 0.0017]},
        )
        assert "proclus" in chart and "gpu" in chart

    def test_log_chart_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_line_chart([0, 1], {"s": [1, 2]})
        with pytest.raises(ValueError):
            log_line_chart([1, 2], {"s": [0, 2]})

    def test_constant_series_renders(self):
        chart = line_chart([1, 2, 3], {"flat": [5, 5, 5]})
        assert "flat" in chart
