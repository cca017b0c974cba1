"""Result rendering."""

from repro.engine.limits import CancelToken
from repro.experiments.report import (
    format_ratio,
    render_run_footer,
    render_series,
    render_table,
)
from repro.experiments.runner import RunReport, TaskFailure


class TestFormatRatio:
    def test_ranges(self):
        assert format_ratio(0.0002) == "0.0002"
        assert format_ratio(0.05) == "0.050"
        assert format_ratio(1.02) == "1.02"
        assert format_ratio(3.77) == "3.77"


class TestRenderSeries:
    def test_columns_per_series(self):
        text = render_series(
            "demo",
            "x",
            {"Q1": [(1.0, 10.0), (2.0, 20.0)], "Q2": [(1.0, 99.0)]},
        )
        lines = text.splitlines()
        assert "demo" in lines[0]
        assert "Q1" in text and "Q2" in text
        assert "—" in text  # missing Q2 point at x=2

    def test_custom_format(self):
        text = render_series("t", "x", {"s": [(1.0, 0.5)]}, y_format=lambda v: f"<{v}>")
        assert "<0.5>" in text


class TestRenderTable:
    def test_alignment(self):
        text = render_table("t", ["a", "long_header"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # rows and separators line up


class TestRenderRunFooter:
    def test_cancelled_and_failed_lines(self):
        assert render_run_footer(RunReport(total=3, completed=3), "cells") == ""
        token = CancelToken()
        token.cancel("budget spent")
        report = RunReport(
            total=4,
            completed=1,
            resumed=1,
            cancelled=True,
            failed_instances=[TaskFailure("0.03:1", "RuntimeError: boom", 2)],
        )
        assert render_run_footer(report, "instances", token).splitlines() == [
            "",
            "cancelled after 2/4 instances (budget spent)",
            "failed instances: 0.03:1 (RuntimeError: boom)",
        ]
