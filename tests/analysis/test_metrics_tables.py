"""Unit tests for overhead metrics, scheme comparisons and table rendering."""

import pytest

from repro.analysis import (
    SchemeComparison,
    count_wins,
    fmt_percent,
    fmt_seconds,
    reduction_factor,
    render_table,
)
from repro.experiments import WorkloadResult


class FakeReport:
    def __init__(self, sim_time):
        self.sim_time = sim_time


def row(normal, scheme, rounds=3):
    """A one-scheme table row: the uncheckpointed run and the scheme's."""
    return WorkloadResult(
        label="w",
        normal=FakeReport(normal),
        interval=1.0,
        rounds=rounds,
        reports={"s": FakeReport(scheme)},
    )


class TestOverheads:
    """The one overhead rule the tables use: ``WorkloadResult``'s methods."""

    def test_overhead_seconds(self):
        assert row(10.0, 12.0).overhead_seconds("s") == 2.0

    def test_overhead_percent(self):
        assert row(10.0, 11.0).overhead_percent("s") == pytest.approx(10.0)

    def test_overhead_percent_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            row(0.0, 1.0).overhead_percent("s")

    def test_per_checkpoint(self):
        assert row(10.0, 16.0, rounds=3).per_checkpoint("s") == 2.0

    def test_per_checkpoint_invalid_rounds(self):
        with pytest.raises(ValueError):
            row(10.0, 16.0, rounds=0).per_checkpoint("s")


class TestWins:
    ROWS = [
        {"a": 1.0, "b": 2.0},
        {"a": 3.0, "b": 2.0},
        {"a": 1.0, "b": 1.0},
        {"a": 0.5, "b": 5.0},
    ]

    def test_count_wins(self):
        assert count_wins(self.ROWS, "a", "b") == (2, 1, 1)

    def test_count_wins_with_tolerance(self):
        rows = [{"a": 1.0, "b": 1.05}]
        assert count_wins(rows, "a", "b", tol=0.1) == (0, 0, 1)

    def test_scheme_comparison_str(self):
        cmp = SchemeComparison.over(self.ROWS, "a", "b")
        assert "a better in 2" in str(cmp)
        assert cmp.ties == 1

    def test_reduction_factor(self):
        rows = [{"x": 10.0, "y": 2.0}, {"x": 8.0, "y": 1.0}]
        red = reduction_factor(rows, "x", "y")
        assert red["min"] == 5.0
        assert red["max"] == 8.0
        assert red["mean"] == 6.5

    def test_reduction_factor_empty(self):
        red = reduction_factor([{"x": 1.0, "y": 0.0}], "x", "y")
        assert red["min"] != red["min"]  # NaN


class TestRendering:
    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(123.4) == "123"
        assert fmt_seconds(12.34) == "12.3"
        assert fmt_seconds(1.234) == "1.23"
        assert fmt_seconds(float("nan")) == "-"

    def test_fmt_percent(self):
        assert fmt_percent(3.14159) == "3.14 %"
        assert fmt_percent(float("nan")) == "-"

    def test_render_table_alignment(self):
        out = render_table(
            ["name", "value"],
            [["alpha", 1.0], ["b", 200.0]],
            title="T",
            fmt=fmt_seconds,
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2] and "value" in lines[2]
        # first column left-aligned, second right-aligned
        assert lines[4].startswith("alpha")
        assert lines[4].rstrip().endswith("1.00")
        assert lines[5].rstrip().endswith("200")

    def test_render_table_none_cell(self):
        out = render_table(["a"], [[None]])
        assert "-" in out
