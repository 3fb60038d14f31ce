"""Unit tests for the core Graph structure."""

import pytest

from repro.errors import GraphError
from repro.graph import DegreeStatistics, Graph, canonical_edge, from_edges


def triangle():
    g = Graph()
    for v, lab in [(0, 1), (1, 2), (2, 3)]:
        g.add_vertex(v, lab)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert len(g) == 0

    def test_directed_rejected(self):
        with pytest.raises(GraphError):
            Graph(directed=True)

    def test_add_vertex_and_label(self):
        g = Graph()
        g.add_vertex(5, 9)
        assert 5 in g
        assert g.label(5) == 9

    def test_relabel_existing_vertex(self):
        g = Graph()
        g.add_vertex(1, 0)
        g.add_vertex(1, 7)
        assert g.label(1) == 7
        assert g.num_vertices == 1

    def test_add_edge_both_directions(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_duplicate_edge_not_counted(self):
        g = triangle()
        assert g.add_edge(0, 1) is False
        assert g.num_edges == 3

    def test_self_loop_rejected(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_edge_to_unknown_vertex_rejected(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.add_edge(0, 99)

    def test_from_edges_creates_vertices(self):
        g = from_edges([(0, 1), (1, 2)], labels={2: 5})
        assert g.num_vertices == 3
        assert g.label(0) == 0
        assert g.label(2) == 5

    def test_from_edges_isolated_labeled_vertex(self):
        g = from_edges([(0, 1)], labels={9: 3})
        assert 9 in g
        assert g.degree(9) == 0


class TestRemoval:
    def test_remove_edge(self):
        g = triangle()
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 2

    def test_remove_missing_edge_raises(self):
        g = triangle()
        g.remove_edge(0, 1)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_remove_vertex_removes_incident_edges(self):
        g = triangle()
        g.remove_vertex(0)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert not g.has_edge(1, 0)

    def test_remove_missing_vertex_raises(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.remove_vertex(42)


class TestQueries:
    def test_edges_canonical_and_unique(self):
        g = triangle()
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_neighbors(self):
        g = triangle()
        assert g.neighbors(0) == {1, 2}

    def test_neighbors_unknown_raises(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.neighbors(10)

    def test_degree(self):
        g = triangle()
        assert g.degree(1) == 2

    def test_label_unknown_raises(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.label(10)

    def test_label_set_and_counts(self):
        g = triangle()
        assert g.label_set() == {1, 2, 3}
        g.add_vertex(3, 1)
        assert g.label_counts()[1] == 2

    def test_label_counts_memo_is_dropped_by_every_mutator(self):
        import pickle

        def histogram(graph):
            counts = {}
            for v in graph.vertices():
                counts[graph.label(v)] = counts.get(graph.label(v), 0) + 1
            return counts

        g = triangle()
        mutations = [
            lambda: g.add_vertex(3, 1),       # new vertex
            lambda: g.add_vertex(0, 9),       # relabel
            lambda: g.add_edge(0, 3),
            lambda: g.remove_edge(0, 3),
            lambda: g.remove_vertex(1),
        ]
        for mutate in mutations:
            assert g.label_counts() == histogram(g)
            assert g._label_counts is not None
            mutate()
            assert g._label_counts is None
            assert g.label_counts() == histogram(g)
        # callers get a copy: scribbling on it does not poison the memo
        g.label_counts()[9] = 1000
        assert g.label_counts() == histogram(g)
        # copies, derived graphs and unpickled graphs start without one
        for other in (g.copy(), g.subgraph([0, 2]), pickle.loads(pickle.dumps(g))):
            assert other._label_counts is None
            assert other.label_counts() == histogram(other)

    def test_vertices_with_label(self):
        g = triangle()
        g.add_vertex(7, 2)
        assert sorted(g.vertices_with_label(2)) == [1, 7]

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_equality(self):
        assert triangle() == triangle()
        other = triangle()
        other.remove_edge(0, 1)
        assert triangle() != other

    def test_graphs_unhashable(self):
        with pytest.raises(TypeError):
            hash(triangle())


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = triangle()
        clone = g.copy()
        clone.remove_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_subgraph_induced(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        assert sub.num_vertices == 2
        assert sub.has_edge(0, 1)
        assert sub.num_edges == 1

    def test_subgraph_ignores_unknown_vertices(self):
        g = triangle()
        sub = g.subgraph([0, 1, 99])
        assert sub.num_vertices == 2

    def test_subgraph_preserves_labels(self):
        g = triangle()
        sub = g.subgraph([2])
        assert sub.label(2) == 3

    def test_edge_subgraph(self):
        g = triangle()
        sub = g.edge_subgraph([(0, 1), (1, 2)])
        assert sub.num_edges == 2
        assert not sub.has_edge(0, 2)

    def test_edge_subgraph_missing_edge_raises(self):
        g = triangle()
        g.remove_edge(0, 1)
        with pytest.raises(GraphError):
            g.edge_subgraph([(0, 1)])


class TestStatisticsAndExport:
    def test_degree_statistics(self):
        g = triangle()
        g.add_vertex(9, 0)
        stats = g.degree_statistics()
        assert stats.d_max == 2
        assert stats.d_avg == pytest.approx(6 / 4)

    def test_degree_statistics_empty(self):
        stats = Graph().degree_statistics()
        assert tuple(stats) == (0, 0.0, 0.0)

    def test_degree_statistics_iterable(self):
        d_max, d_avg, d_std = DegreeStatistics(3, 1.5, 0.5)
        assert (d_max, d_avg, d_std) == (3, 1.5, 0.5)
