"""Tests for GraphBuilder and graph I/O round-trips."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    GraphBuilder,
    read_edge_list,
    read_json,
    read_label_file,
    undirected_simple,
    write_edge_list,
    write_json,
    write_labels,
)


class TestGraphBuilder:
    def test_builds_simple_graph(self):
        g = GraphBuilder().add_edges([(0, 1), (1, 2)]).build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_deduplicates_edges(self):
        builder = GraphBuilder().add_edges([(0, 1), (1, 0), (0, 1)])
        assert builder.build().num_edges == 1
        assert builder.duplicate_edges == 2

    def test_drops_self_loops(self):
        builder = GraphBuilder().add_edges([(3, 3), (0, 1)])
        g = builder.build()
        assert builder.self_loops == 1
        assert not g.has_vertex(3)

    def test_set_labels_creates_vertices(self):
        g = GraphBuilder().set_labels({5: 2}).build()
        assert g.label(5) == 2

    def test_relabel_contiguous(self):
        g = GraphBuilder().add_edges([(10, 20), (20, 30)]).build(
            relabel_contiguous=True
        )
        assert sorted(g.vertices()) == [0, 1, 2]
        assert g.num_edges == 2

    def test_undirected_simple_helper(self):
        g = undirected_simple([(0, 1), (1, 1)], labels={0: 4})
        assert g.num_edges == 1
        assert g.label(0) == 4


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = undirected_simple([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        write_edge_list(g, edges)
        write_labels(g, labels)
        loaded = read_edge_list(edges, labels)
        assert loaded == g

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_read_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_read_label_file_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.labels"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphError):
            read_label_file(path)

    def test_read_deduplicates(self, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("0 1\n1 0\n2 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 1


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        g = undirected_simple([(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3})
        path = tmp_path / "g.json"
        write_json(g, path)
        assert read_json(path) == g

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(GraphError):
            read_json(path)

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.json"
        write_json(Graph(), path)
        assert read_json(path).num_vertices == 0


class TestEdgeLabelRoundTrips:
    def make(self):
        g = undirected_simple([(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3})
        g.add_edge(0, 1, 7)  # relabel existing edge
        return g

    def test_edge_list_round_trip_with_labels(self, tmp_path):
        g = self.make()
        path = tmp_path / "el.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.edge_label(0, 1) == 7
        assert loaded.edge_label(1, 2) is None
        assert loaded == g.copy() or loaded.edge_labels() == g.edge_labels()

    def test_json_round_trip_with_labels(self, tmp_path):
        g = self.make()
        path = tmp_path / "el.json"
        write_json(g, path)
        assert read_json(path) == g

    def test_malformed_four_column_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            read_edge_list(path)
