"""Unit tests for table and chart rendering."""

import numpy as np
import pytest

from repro.experiments.report import ascii_chart, render_table


def test_render_table_alignment():
    out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4
    # all rows same width
    assert len({len(l) for l in lines}) == 1
    assert "333" in lines[3]


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [["only-one"]])


def test_render_table_empty_rows():
    out = render_table(["x"], [])
    assert "x" in out


def test_ascii_chart_contains_series_glyphs_and_legend():
    chart = ascii_chart(
        {"up": np.arange(100.0), "flat": np.full(100, 50.0)},
        width=40, height=8, title="demo",
    )
    assert "demo" in chart
    assert "* up" in chart
    assert "o flat" in chart
    lines = chart.splitlines()
    plot = [l for l in lines if l.startswith("|")]
    assert len(plot) == 8
    # increasing series: '*' appears in the top row at the right edge
    assert "*" in plot[0]


def test_ascii_chart_empty():
    assert ascii_chart({}) == "(no data)"


def test_ascii_chart_constant_zero_series():
    chart = ascii_chart({"z": np.zeros(10)})
    assert "z" in chart


def test_summary_row_shapes():
    from repro.experiments.summary import RunSummary
    s = RunSummary(
        label="l", n_blocks=4, outcome="commit", avg_latency_us=1.0,
        max_latency_us=2.0, p95_latency_us=1.5, completion_time_us=10.0,
        compression_ratio=1.5, rollbacks=0, wasted_encodes=0,
    )
    assert len(s.row()) == len(RunSummary.HEADER)
