"""Tests for the memory model and report formatting."""

import pytest

from repro.analysis import (
    dynamic_state_bytes,
    format_bytes,
    format_count,
    format_seconds,
    format_table,
    memory_breakdown,
    relative_breakdown,
    series,
    speedup,
    static_state_bytes,
    topology_bytes,
)
from repro.graph import from_edges
from repro.graph.generators import webgraph
from repro.runtime import MessageStats


class TestMemoryModel:
    def test_topology_dominates_on_plain_graph(self):
        """Fig. 11(a): ~86% of memory is topology at the paper's settings."""
        g = webgraph(2000, edges_per_vertex=8, seed=1)
        breakdown = memory_breakdown(g)
        fraction = relative_breakdown(breakdown)
        assert fraction["topology"] > 0.7

    def test_topology_scales_with_edges(self):
        small = topology_bytes(from_edges([(0, 1)]))
        big = topology_bytes(webgraph(500, seed=2))
        assert big > small

    def test_static_state_scales_with_prototypes(self):
        g = webgraph(200, seed=3)
        assert static_state_bytes(g, num_prototypes=64) > static_state_bytes(
            g, num_prototypes=32
        )

    def test_dynamic_state_from_intervals(self):
        stats = MessageStats(2)
        for _ in range(10):
            stats.record_message(0, 1, True)
        stats.barrier()
        assert dynamic_state_bytes(stats) == 10 * 2 * 32

    def test_dynamic_state_empty(self):
        assert dynamic_state_bytes(MessageStats(2)) == 0

    def test_breakdown_total(self):
        g = webgraph(100, seed=4)
        breakdown = memory_breakdown(g)
        assert breakdown["total"] == (
            breakdown["topology"] + breakdown["static"] + breakdown["dynamic"]
        )

    def test_relative_fractions_sum_to_one(self):
        g = webgraph(100, seed=5)
        fractions = relative_breakdown(memory_breakdown(g))
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_relative_empty(self):
        assert relative_breakdown({"topology": 0, "static": 0, "dynamic": 0}) == {
            "topology": 0.0,
            "static": 0.0,
            "dynamic": 0.0,
        }


class TestReportFormatting:
    def test_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["bcd", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_table_floats_formatted(self):
        table = format_table(["x"], [[1.23456]])
        assert "1.235" in table

    @pytest.mark.parametrize(
        "value, cell",
        [(0.000584, "0.000584"), (-0.000584, "-0.000584"), (1.23456, "1.235"),
         (0.0, "0.000"), (0.001, "0.001")],
    )
    def test_small_floats_keep_four_significant_digits(self, value, cell):
        assert format_table(["x"], [[value]]).splitlines()[-1].strip() == cell

    def test_seconds_scales(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(5).endswith("s")
        assert format_seconds(600).endswith("min")
        assert format_seconds(10000).endswith("h")

    def test_bytes_scales(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048).endswith("KB")
        assert format_bytes(5 * 1024**3).endswith("GB")

    def test_count_scales(self):
        assert format_count(999) == "999"
        assert format_count(1500) == "1.5K"
        assert format_count(2_500_000) == "2.5M"
        assert format_count(3_100_000_000) == "3.1B"

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(10.0, 0.0) == float("inf")
        assert speedup(0.0, 0.0) == 1.0

    def test_series(self):
        text = series("weak-scaling", [2, 4], [1.0, 1.1])
        assert "[weak-scaling]" in text
        assert "2: 1.0000" in text


class TestBarChart:
    def test_rows_and_scaling(self):
        from repro.analysis import bar_chart

        chart = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # max value fills the bar
        assert lines[0].count("#") == 5

    def test_empty(self):
        from repro.analysis import bar_chart

        assert bar_chart([], []) == "(no data)"

    def test_zero_values(self):
        from repro.analysis import bar_chart

        chart = bar_chart(["x"], [0.0], width=4)
        assert "####" not in chart
