"""Tests for classical graph algorithms."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    bfs_order,
    connected_components,
    from_edges,
    is_connected,
    k_core,
    shortest_path,
    shortest_path_lengths,
    simple_cycles_upto,
)
from repro.graph.algorithms import induced_edges, triangles_at
from repro.graph.graph import Graph


def path_graph(n):
    return from_edges([(i, i + 1) for i in range(n - 1)])


class TestTraversal:
    def test_bfs_order_visits_all_reachable(self):
        g = path_graph(5)
        assert bfs_order(g, 0) == [0, 1, 2, 3, 4]

    def test_bfs_unknown_source_raises(self):
        with pytest.raises(GraphError):
            bfs_order(path_graph(3), 9)

    def test_bfs_respects_components(self):
        g = from_edges([(0, 1), (2, 3)])
        assert set(bfs_order(g, 0)) == {0, 1}


class TestConnectivity:
    def test_empty_graph_connected(self):
        assert is_connected(Graph())

    def test_path_connected(self):
        assert is_connected(path_graph(4))

    def test_disconnected(self):
        assert not is_connected(from_edges([(0, 1), (2, 3)]))

    def test_components_sorted_by_size(self):
        g = from_edges([(0, 1), (1, 2), (3, 4)])
        comps = connected_components(g)
        assert [len(c) for c in comps] == [3, 2]
        assert comps[0] == {0, 1, 2}


class TestShortestPaths:
    def test_lengths(self):
        g = path_graph(4)
        assert shortest_path_lengths(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_path_endpoints(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = shortest_path(g, 0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 3  # 0 - 2 - 3

    def test_path_to_self(self):
        g = path_graph(3)
        assert shortest_path(g, 1, 1) == [1]

    def test_no_path_returns_none(self):
        g = from_edges([(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_unknown_endpoint_raises(self):
        with pytest.raises(GraphError):
            shortest_path(path_graph(3), 0, 99)


class TestKCore:
    def test_triangle_is_2core(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert k_core(g, 2) == {0, 1, 2}

    def test_kcore_empty_when_too_demanding(self):
        assert k_core(path_graph(5), 2) == set()


class TestTriangles:
    def test_triangle_count_at_vertex(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (0, 3)])
        assert triangles_at(g, 0) == 1
        assert triangles_at(g, 3) == 0


class TestSimpleCycles:
    def test_triangle_found_once(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        assert simple_cycles_upto(g, 3) == [(0, 1, 2)]

    def test_square_with_diagonal(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        cycles = simple_cycles_upto(g, 4)
        lengths = sorted(len(c) for c in cycles)
        assert lengths == [3, 3, 4]

    def test_max_length_respected(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert simple_cycles_upto(g, 3) == []
        assert len(simple_cycles_upto(g, 4)) == 1

    def test_tree_has_no_cycles(self):
        assert simple_cycles_upto(path_graph(6), 6) == []

    def test_each_cycle_once_in_its_least_rotation(self):
        k6 = from_edges([(u, v) for u in range(6) for v in range(u + 1, 6)])
        cycles = simple_cycles_upto(k6, 6)
        # C(6, l) vertex sets, (l - 1)! / 2 cycles on each
        assert len(cycles) == 20 * 1 + 15 * 3 + 6 * 12 + 1 * 60
        for cycle in cycles:
            n = len(cycle)
            rotations = [
                tuple(order[(shift + i) % n] for i in range(n))
                for order in (cycle, cycle[::-1])
                for shift in range(n)
            ]
            assert cycle == min(rotations)
        assert cycles == sorted(set(cycles))

    def test_two_triangles_sharing_vertex(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        cycles = simple_cycles_upto(g, 6)
        assert len(cycles) == 2


class TestInducedEdges:
    def test_induced_edges(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert induced_edges(g, [0, 1, 2]) == [(0, 1), (0, 2), (1, 2)]

    def test_unknown_vertices_ignored(self):
        g = from_edges([(0, 1)])
        assert induced_edges(g, [0, 1, 9]) == [(0, 1)]
